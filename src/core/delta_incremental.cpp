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
  chunk_epoch_.assign(chunks, 0);
  epoch_ = 0;
  dirty_points_.clear();
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
  ++epoch_;
  dirty_points_.clear();
}

void IncrementalDelta::mark_dirty(const geo::Delaunay& dt,
                                  std::span<const int> tris) {
  const auto res = static_cast<long>(res_);
  std::size_t rows = 0;
  for (const int tid : tris) {
    if (!dt.triangle_alive(tid)) continue;
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
            const std::size_t k = base + static_cast<std::size_t>(i);
            if (point_epoch_[k] != epoch_) {
              point_epoch_[k] = epoch_;
              dirty_points_.push_back(static_cast<std::uint32_t>(k));
            }
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

void IncrementalDelta::commit(const geo::Delaunay& dt) {
  if (!batch_open_) return;
  batch_open_ = false;
  const bool reassign = batch_topology_;
  batch_topology_ = false;
  ++stats_.events;
  CPS_COUNT("core.delta.inc_events", 1);
  // A batch with nothing marked (a pure duplicate hit) leaves every
  // assignment and surface value as it was.
  if (!reassign && dirty_points_.empty()) return;

  if (reassign) {
    // Non-strict points sit on edges/vertices, where assignment is
    // hint-dependent: any upstream change can shift the hint they would
    // be walked with, so they are re-walked at every topology commit.
    for (const std::uint32_t k : fallback_) {
      if (point_epoch_[k] != epoch_) {
        point_epoch_[k] = epoch_;
        dirty_points_.push_back(k);
      }
    }
  }
  // Ascending order: a relocation at k reads assign_[k - 1], which must
  // already hold its final (this-batch) value to replay the fresh sweep's
  // hint chain.
  std::sort(dirty_points_.begin(), dirty_points_.end());

  const std::span<const double> xs = lat_.xs();
  dirty_chunks_.clear();
  for (const std::uint32_t k : dirty_points_) {
    const std::size_t j = k / res_;
    const std::size_t i = k % res_;
    const geo::Vec2 p{xs[i], lat_.y(j)};
    if (reassign) {
      const int old_tid = assign_[k];
      // A strict assignment is kept only while its triangle is alive and
      // still strictly contains the point.  Strict containment is unique,
      // so this is exactly the triangle a fresh span sweep would fast-
      // assign — even when the slot was recycled into new geometry.
      const bool keep = strict_[k] != 0 && dt.triangle_alive(old_tid) &&
                        detail::strictly_inside(dt, old_tid, p);
      if (keep) {
        ++stats_.keeps;
        CPS_COUNT("core.delta.inc_keep_assigns", 1);
      } else {
        const int hint = chunk_first(k) ? -1 : assign_[k - 1];
        const int tid = dt.locate_from(p, hint);
        assign_[k] = tid;
        strict_[k] = detail::strictly_inside(dt, tid, p) ? 1 : 0;
        ++stats_.relocates;
        CPS_COUNT("core.delta.inc_relocates", 1);
      }
    }
    interp_[k] = detail::interpolate_point(dt, assign_[k], p);
    const auto c = static_cast<std::uint32_t>(chunk_of(k));
    if (chunk_epoch_[c] != epoch_) {
      chunk_epoch_[c] = epoch_;
      dirty_chunks_.push_back(c);
    }
  }
  if (reassign) {
    // Every previously non-strict point is in the dirty set, so the new
    // fallback list is exactly the dirty points that ended non-strict
    // (already in ascending order).
    fallback_.clear();
    for (const std::uint32_t k : dirty_points_) {
      if (strict_[k] == 0) fallback_.push_back(k);
    }
  }
  for (const std::uint32_t c : dirty_chunks_) refold_chunk(c);
  stats_.points_reevaluated += dirty_points_.size();
  CPS_COUNT("core.delta.inc_points", dirty_points_.size());
}

double IncrementalDelta::value() const noexcept {
  // Ascending chunk fold from 0.0, then the cell area — exactly
  // DeltaMetric::delta()'s reduce-and-scale arithmetic.
  double acc = 0.0;
  for (const double s : chunk_sums_) acc += s;
  return acc * lat_.hx() * lat_.hy();
}

}  // namespace cps::core
