#include "core/delta_incremental.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/delta_detail.hpp"
#include "obs/obs.hpp"

namespace cps::core {

IncrementalDelta::IncrementalDelta(const DeltaMetric& metric,
                                   const field::Field& reference,
                                   const geo::Delaunay& dt)
    : region_(metric.region()),
      res_(metric.resolution()),
      lat_(metric.region(), metric.resolution(), metric.resolution()),
      ref_rows_(metric.reference_lattice(reference)) {
  stats_.full_sweep_points = res_ * res_;
  rebuild(dt);
}

bool IncrementalDelta::chunk_first(std::size_t k) const noexcept {
  return k % (chunk_rows_ * res_) == 0;
}

std::size_t IncrementalDelta::chunk_of(std::size_t k) const noexcept {
  return k / (chunk_rows_ * res_);
}

void IncrementalDelta::refold_chunk(std::size_t c) {
  const std::size_t begin = c * chunk_rows_ * res_;
  const std::size_t end =
      std::min(begin + chunk_rows_ * res_, res_ * res_);
  // Serial point-order fold of |ref - DT|: the rounding sequence is the
  // bit-identity contract (per-point deltas do not recompose under
  // re-association), and this is the sweep's own fold over the same
  // stored DT values, so it reproduces the sweep's chunk sum bitwise.
  const double* ref = ref_rows_->data();
  double s = 0.0;
  for (std::size_t k = begin; k < end; ++k) {
    s += std::abs(ref[k] - interp_[k]);
  }
  chunk_sums_[c] = s;
}

void IncrementalDelta::rebuild(const geo::Delaunay& dt) {
  // Capture the sweep's chunk layout: the hint chains and partial sums
  // below are only delta()'s while it stays the same (rebase otherwise).
  chunk_rows_ = detail::chunk_rows(res_);
  const std::size_t n = res_ * res_;
  const std::size_t chunks = (res_ + chunk_rows_ - 1) / chunk_rows_;
  assign_.resize(n);
  strict_.resize(n);
  interp_.resize(n);
  chunk_sums_.assign(chunks, 0.0);
  point_epoch_.assign(n, 0);
  row_epoch_.assign(res_, 0);
  epoch_ = 0;
  batch_tris_.clear();
  batch_open_ = false;
  batch_topology_ = false;

  detail::raster_sweep(
      dt, region_, lat_, ref_rows_->data(),
      [&](std::size_t j, const detail::SweptRow& row) {
        const std::size_t base = j * res_;
        std::copy_n(row.tri, res_, assign_.begin() + base);
        std::copy_n(row.strict, res_, strict_.begin() + base);
        std::copy_n(row.interp, res_, interp_.begin() + base);
      });
  for (std::size_t c = 0; c < chunks; ++c) refold_chunk(c);
  fallback_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    if (strict_[k] == 0) fallback_.push_back(static_cast<std::uint32_t>(k));
  }
  ++stats_.rebuilds;
  CPS_COUNT("core.delta.inc_rebuilds", 1);
}

void IncrementalDelta::rebase(const geo::Delaunay& dt) { rebuild(dt); }

void IncrementalDelta::retarget(const DeltaMetric& metric,
                                const field::Field& reference) {
  if (metric.resolution() != res_ || metric.region().x0 != region_.x0 ||
      metric.region().y0 != region_.y0 || metric.region().x1 != region_.x1 ||
      metric.region().y1 != region_.y1) {
    throw std::invalid_argument(
        "IncrementalDelta::retarget: metric lattice mismatch");
  }
  ref_rows_ = metric.reference_lattice(reference);
  for (std::size_t c = 0; c < chunk_sums_.size(); ++c) refold_chunk(c);
  ++stats_.retargets;
  CPS_COUNT("core.delta.inc_retargets", 1);
}

void IncrementalDelta::open_batch() {
  if (batch_open_) return;
  batch_open_ = true;
  epoch_ += 2;
}

void IncrementalDelta::mark_dirty(const geo::Delaunay& dt,
                                  std::span<const int> tris) {
  const auto res = static_cast<long>(res_);
  std::size_t rows = 0;
  for (const int tid : tris) {
    if (!dt.triangle_alive(tid)) continue;
    batch_tris_.push_back(tid);
    const auto& t = dt.triangle(tid);
    detail::for_each_covered_range(
        dt.vertex(t.v[0]).pos, dt.vertex(t.v[1]).pos, dt.vertex(t.v[2]).pos,
        region_, lat_, res, [&](long j, long ilo, long ihi) {
          const auto row = static_cast<std::size_t>(j);
          if (row_epoch_[row] != epoch_) {
            row_epoch_[row] = epoch_;
            ++rows;
          }
          const std::size_t base = row * res_;
          for (long i = ilo; i <= ihi; ++i) {
            point_epoch_[base + static_cast<std::size_t>(i)] = epoch_;
          }
        });
  }
  stats_.rows_touched += rows;
  CPS_COUNT("core.delta.inc_rows", rows);
}

void IncrementalDelta::mark(const geo::Delaunay& dt,
                            const geo::InsertResult& r) {
  open_batch();
  if (r.inserted) {
    // The created fan covers the cavity (and therefore every removed
    // triangle's region): marking it catches every point whose surface
    // value or assignment the insertion could have moved.
    batch_topology_ = true;
    mark_dirty(dt, r.created_triangles);
  } else if (r.z_changed) {
    // Duplicate-tolerance hit: topology untouched, surface moved over the
    // star.
    mark_dirty(dt, r.star_triangles);
  }
}

void IncrementalDelta::mark(const geo::Delaunay& dt,
                            const geo::RemoveResult& r) {
  open_batch();
  batch_topology_ = true;
  mark_dirty(dt, r.created_triangles);
}

void IncrementalDelta::mark(const geo::Delaunay& dt,
                            const geo::MoveResult& r) {
  open_batch();
  batch_topology_ = true;
  mark_dirty(dt, r.changed_triangles);
}

void IncrementalDelta::mark_z(const geo::Delaunay& dt,
                              std::span<const int> star_triangles) {
  open_batch();
  mark_dirty(dt, star_triangles);
}

std::size_t IncrementalDelta::assign_spans(const geo::Delaunay& dt) {
  // A triangle marked twice (or marked, freed and recycled into the same
  // id) is scanned once, against its geometry now.
  std::sort(batch_tris_.begin(), batch_tris_.end());
  batch_tris_.erase(std::unique(batch_tris_.begin(), batch_tris_.end()),
                    batch_tris_.end());
  const std::span<const double> xs = lat_.xs();
  const auto res = static_cast<long>(res_);
  const std::uint32_t resolved = epoch_ + 1;
  std::size_t assigned = 0;
  for (const int tid : batch_tris_) {
    if (!dt.triangle_alive(tid)) continue;
    const auto& t = dt.triangle(tid);
    const geo::Vec2 a = dt.vertex(t.v[0]).pos;
    const geo::Vec2 b = dt.vertex(t.v[1]).pos;
    const geo::Vec2 c = dt.vertex(t.v[2]).pos;
    const double za = dt.vertex(t.v[0]).z;
    const double zb = dt.vertex(t.v[1]).z;
    const double zc = dt.vertex(t.v[2]).z;
    const double total = geo::orient2d_value(a, b, c);
    // The same conservative scan conversion the sweep emits its spans
    // with, consumed as it is produced: no span list is stored.
    detail::for_each_covered_range(
        a, b, c, region_, lat_, res, [&](long j, long ilo, long ihi) {
          const auto row = static_cast<std::size_t>(j);
          const double y = lat_.y(row);
          const std::size_t base = row * res_;
          for (long i = ilo; i <= ihi; ++i) {
            const std::size_t k = base + static_cast<std::size_t>(i);
            if (point_epoch_[k] != epoch_) continue;
            const geo::Vec2 p{xs[static_cast<std::size_t>(i)], y};
            if (!detail::strictly_inside(a, b, c, p)) continue;
            assign_[k] = tid;
            strict_[k] = 1;
            interp_[k] = detail::interpolate_point(a.x, a.y, b.x, b.y, c.x,
                                                   c.y, za, zb, zc, total,
                                                   p.x, p.y);
            point_epoch_[k] = resolved;
            ++assigned;
          }
        });
  }
  return assigned;
}

void IncrementalDelta::commit(const geo::Delaunay& dt) {
  if (!batch_open_) return;
  batch_open_ = false;
  const bool reassign = batch_topology_;
  batch_topology_ = false;
  ++stats_.events;
  CPS_COUNT("core.delta.inc_events", 1);

  std::size_t span_assigns = 0;
  if (reassign) {
    // Non-strict points sit on edges/vertices, where assignment is
    // hint-dependent: any upstream change can shift the hint they would
    // be walked with, so they are re-walked at every topology commit.
    for (const std::uint32_t k : fallback_) {
      point_epoch_[k] = epoch_;
      row_epoch_[k / res_] = epoch_;
    }
    // Every previously non-strict point is dirty now, so the new
    // fallback list is exactly the dirty points that end non-strict,
    // collected below in ascending order.
    fallback_.clear();
    span_assigns = assign_spans(dt);
  }
  batch_tris_.clear();

  // The remaining dirty points, row by row in ascending point order: a
  // relocation at k reads assign_[k - 1], which already holds its final
  // (this-batch) value — span-tier hits were assigned above, earlier
  // points in this loop — so the fresh sweep's hint chain is replayed.
  const std::span<const double> xs = lat_.xs();
  std::size_t visited = 0;
  std::size_t keeps = 0;
  std::size_t relocates = 0;
  std::size_t last_chunk = chunk_sums_.size();
  for (std::size_t j = 0; j < res_; ++j) {
    if (row_epoch_[j] != epoch_) continue;
    const double y = lat_.y(j);
    const std::size_t base = j * res_;
    for (std::size_t i = 0; i < res_; ++i) {
      const std::size_t k = base + i;
      if (point_epoch_[k] != epoch_) continue;
      ++visited;
      const geo::Vec2 p{xs[i], y};
      if (reassign) {
        const int old_tid = assign_[k];
        // A strict assignment is kept only while its triangle is alive
        // and still strictly contains the point.  Strict containment is
        // unique, so this is exactly the triangle a fresh span sweep
        // would fast-assign — even when the slot was recycled into new
        // geometry.
        if (strict_[k] != 0 && dt.triangle_alive(old_tid) &&
            detail::strictly_inside(dt, old_tid, p)) {
          ++keeps;
        } else {
          const int hint = chunk_first(k) ? -1 : assign_[k - 1];
          const int tid = dt.locate_from(p, hint);
          assign_[k] = tid;
          strict_[k] = detail::strictly_inside(dt, tid, p) ? 1 : 0;
          if (strict_[k] == 0) {
            fallback_.push_back(static_cast<std::uint32_t>(k));
          }
          ++relocates;
        }
      }
      interp_[k] = detail::interpolate_point(dt, assign_[k], p);
    }
    // Rows ascend, so each dirty chunk is refolded once, after its last
    // dirty row.
    const std::size_t c = chunk_of(base);
    if (c != last_chunk && last_chunk != chunk_sums_.size()) {
      refold_chunk(last_chunk);
    }
    last_chunk = c;
  }
  if (last_chunk != chunk_sums_.size()) refold_chunk(last_chunk);

  const std::size_t points = span_assigns + visited;
  stats_.span_assigns += span_assigns;
  stats_.keeps += keeps;
  stats_.relocates += relocates;
  stats_.points_reevaluated += points;
  if (span_assigns != 0) {
    CPS_COUNT("core.delta.inc_span_assigns", span_assigns);
  }
  if (keeps != 0) CPS_COUNT("core.delta.inc_keep_assigns", keeps);
  if (relocates != 0) CPS_COUNT("core.delta.inc_relocates", relocates);
  if (points != 0) CPS_COUNT("core.delta.inc_points", points);
}

double IncrementalDelta::value() const noexcept {
  // Ascending chunk fold from 0.0, then the cell area — exactly
  // DeltaMetric::delta()'s reduce-and-scale arithmetic.
  double acc = 0.0;
  for (const double s : chunk_sums_) acc += s;
  return acc * lat_.hx() * lat_.hy();
}

}  // namespace cps::core
