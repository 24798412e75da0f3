// The raster sweep: the one routine that assigns δ's evaluation lattice to
// triangles and interpolates the rebuilt surface there.
//
// DeltaMetric::delta (core/delta.cpp) runs it and keeps only the sum;
// IncrementalDelta (core/delta_incremental.cpp) runs it at build time and
// keeps the per-point state, then repairs that state event by event with
// the single-point helpers below.  Both must produce the same bits — the
// oracle protocol (incremental ≡ fresh sweep ≡ the remembering-walk oracle
// in tests/oracle, bitwise) — so every expression here is fixed: the SoA
// mirror copies coordinates verbatim, the guard-range formulas keep their
// float expressions unreordered, and the interpolation replays
// interpolate_linear's barycentric expression term for term.  Edit with a
// bit-identity test in hand (tests/test_delta_incremental.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/predicates.hpp"
#include "numerics/quadrature.hpp"
#include "obs/obs.hpp"
#include "parallel/simd.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core::detail {

/// Lattice rows per sweep chunk when the sweep is chunked.
inline constexpr std::size_t kRowGrain = 4;

/// Rows per chunk of the sweep's reduction (reduce_rows below).  While the
/// telemetry timeline is armed the layout is pinned to kRowGrain-row
/// chunks at every thread count (parallel_reduce_chunked), so the
/// annotated δ, the fallback-walk counters, and therefore the timeline
/// JSONL are bit-identical across --threads values.  Disarmed, a
/// multi-thread pool splits into the same kRowGrain-row chunks and a
/// single thread keeps parallel_reduce's serial shortcut: one chain over
/// all `res` rows, bit-identical to the original serial evaluation.  Each
/// chunk threads its own walk hint from -1, so this layout is part of
/// what δ means bitwise.
inline std::size_t chunk_rows(std::size_t res) {
  return obs::timeline().armed() || par::thread_count() > 1 ? kRowGrain
                                                            : res;
}

/// Ordered row reduction with the chunk_rows() layout: map(begin, end)
/// folds one chunk, partials combine in ascending chunk order.
template <typename Map>
double reduce_rows(std::size_t n, Map&& map) {
  const auto combine = [](double a, double b) { return a + b; };
  if (obs::timeline().armed()) {
    return par::parallel_reduce_chunked(n, 0.0, std::forward<Map>(map),
                                        combine, kRowGrain);
  }
  return par::parallel_reduce(n, 0.0, std::forward<Map>(map), combine,
                              kRowGrain);
}

/// One triangle's column interval on one lattice row (inclusive, with a
/// one-column conservative guard on each end — precision only affects how
/// many candidates a point tests, never which triangle it is assigned).
/// `slot` indexes the TriangleSoA mirror built for the same sweep.
struct RowSpan {
  int tri = -1;
  std::uint32_t slot = 0;
  int ilo = 0;
  int ihi = -1;
};

/// Structure-of-arrays mirror of the alive triangles: vertex coordinates,
/// vertex z values, and the hoisted barycentric denominator
/// orient2d_value(a, b, c) — one flat array per component, so the row
/// sweep's containment tests and interpolations stream 8-byte lanes
/// instead of chasing Delaunay vertex records through triangle indices.
struct TriangleSoA {
  std::vector<double> ax, ay, bx, by, cx, cy;
  std::vector<double> za, zb, zc;
  std::vector<double> total;              // orient2d_value(a, b, c).
  std::vector<std::uint32_t> slot_of;     // Triangle id -> slot.

  void build(const geo::Delaunay& dt, const std::vector<int>& alive) {
    const std::size_t n = alive.size();
    ax.resize(n); ay.resize(n); bx.resize(n); by.resize(n);
    cx.resize(n); cy.resize(n); za.resize(n); zb.resize(n); zc.resize(n);
    total.resize(n);
    slot_of.assign(dt.triangle_slots(), 0);
    for (std::size_t s = 0; s < n; ++s) {
      const int tid = alive[s];
      const auto& t = dt.triangle(tid);
      const geo::Vec2 a = dt.vertex(t.v[0]).pos;
      const geo::Vec2 b = dt.vertex(t.v[1]).pos;
      const geo::Vec2 c = dt.vertex(t.v[2]).pos;
      ax[s] = a.x; ay[s] = a.y;
      bx[s] = b.x; by[s] = b.y;
      cx[s] = c.x; cy[s] = c.y;
      za[s] = dt.vertex(t.v[0]).z;
      zb[s] = dt.vertex(t.v[1]).z;
      zc[s] = dt.vertex(t.v[2]).z;
      total[s] = geo::orient2d_value(a, b, c);
      slot_of[static_cast<std::size_t>(tid)] =
          static_cast<std::uint32_t>(s);
    }
  }

  geo::Vec2 a(std::uint32_t s) const noexcept { return {ax[s], ay[s]}; }
  geo::Vec2 b(std::uint32_t s) const noexcept { return {bx[s], by[s]}; }
  geo::Vec2 c(std::uint32_t s) const noexcept { return {cx[s], cy[s]}; }
};

/// True when p is strictly inside the triangle (a, b, c): every walk edge
/// predicate is strictly positive.  These are the same filtered orient2d
/// calls, in the same (B,C), (C,A), (A,B) edge order, that
/// Delaunay::walk_from evaluates — so a strict pass guarantees the walk's
/// closed-containment test accepts this triangle and rejects every other
/// (p is on no edge, and triangle interiors are disjoint), i.e.
/// locate_from returns this triangle for ANY hint.
inline bool strictly_inside(geo::Vec2 a, geo::Vec2 b, geo::Vec2 c,
                            geo::Vec2 p) {
  if (geo::orient2d(b, c, p) <= 0) return false;
  if (geo::orient2d(c, a, p) <= 0) return false;
  return geo::orient2d(a, b, p) > 0;
}

/// strictly_inside against the triangulation's own records (the SoA
/// mirror holds the same doubles), for callers that track assignments
/// across topology changes.
inline bool strictly_inside(const geo::Delaunay& dt, int tid, geo::Vec2 p) {
  const auto& t = dt.triangle(tid);
  return strictly_inside(dt.vertex(t.v[0]).pos, dt.vertex(t.v[1]).pos,
                         dt.vertex(t.v[2]).pos, p);
}

/// interpolate_linear's exact expression (barycentric weights over the
/// hoisted orient2d_value denominator), term for term.  The
/// degenerate-denominator guard replays the scalar path's all-zero-weights
/// result (never taken for a Delaunay triangulation, which stores no
/// degenerate triangles).
inline double interpolate_point(double ax, double ay, double bx, double by,
                                double cx, double cy, double za, double zb,
                                double zc, double total, double px,
                                double py) {
  const double w0 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / total;
  const double w1 =
      ((px - ax) * (cy - ay) - (py - ay) * (cx - ax)) / total;
  const double w2 = 1.0 - w0 - w1;
  const double z = w0 * za + w1 * zb + w2 * zc;
  return total == 0.0 ? 0.0 : z;
}

/// interpolate_point fed from the triangulation's records.
inline double interpolate_point(const geo::Delaunay& dt, int tid,
                                geo::Vec2 p) {
  const auto& t = dt.triangle(tid);
  const geo::Vec2 a = dt.vertex(t.v[0]).pos;
  const geo::Vec2 b = dt.vertex(t.v[1]).pos;
  const geo::Vec2 c = dt.vertex(t.v[2]).pos;
  return interpolate_point(a.x, a.y, b.x, b.y, c.x, c.y,
                           dt.vertex(t.v[0]).z, dt.vertex(t.v[1]).z,
                           dt.vertex(t.v[2]).z, geo::orient2d_value(a, b, c),
                           p.x, p.y);
}

/// Scan-converts one triangle into per-row inclusive column ranges over
/// the midpoint lattice and calls sink(j, ilo, ihi) for every non-empty
/// row.  Midpoint rows are y0 + (j + 0.5) hy; the ±1 row/column guard
/// absorbs any rounding in the inverse map, so emitted ranges are a
/// conservative superset of the triangle's closed coverage.  The sweep's
/// span emission and the incremental engine's dirty marking both use it,
/// which is what makes "dirty region ⊇ sweep coverage of the changed
/// triangles" hold by construction.
template <typename Sink>
void for_each_covered_range(geo::Vec2 a, geo::Vec2 b, geo::Vec2 c,
                            const num::Rect& region,
                            const num::MidpointLattice& lat, long res,
                            Sink&& sink) {
  const double hx = lat.hx();
  const double hy = lat.hy();
  const double ymin = std::min({a.y, b.y, c.y});
  const double ymax = std::max({a.y, b.y, c.y});
  const long jlo = std::max(
      0L, static_cast<long>(std::floor((ymin - region.y0) / hy - 0.5)) - 1);
  const long jhi = std::min(
      res - 1,
      static_cast<long>(std::ceil((ymax - region.y0) / hy - 0.5)) + 1);
  for (long j = jlo; j <= jhi; ++j) {
    const double y = lat.y(static_cast<std::size_t>(j));
    double xlo = std::numeric_limits<double>::infinity();
    double xhi = -xlo;
    const geo::Vec2 edges[3][2] = {{a, b}, {b, c}, {c, a}};
    for (const auto& edge : edges) {
      const geo::Vec2 p = edge[0];
      const geo::Vec2 q = edge[1];
      if (std::min(p.y, q.y) > y || std::max(p.y, q.y) < y) continue;
      if (p.y == q.y) {
        xlo = std::min({xlo, p.x, q.x});
        xhi = std::max({xhi, p.x, q.x});
      } else {
        const double t = (y - p.y) / (q.y - p.y);
        const double x = p.x + t * (q.x - p.x);
        xlo = std::min(xlo, x);
        xhi = std::max(xhi, x);
      }
    }
    if (xhi < xlo) continue;  // Row inside the guard band only.
    const long ilo = std::max(
        0L, static_cast<long>(std::floor((xlo - region.x0) / hx - 0.5)) - 1);
    const long ihi = std::min(
        res - 1,
        static_cast<long>(std::ceil((xhi - region.x0) / hx - 0.5)) + 1);
    if (ilo > ihi) continue;
    sink(j, ilo, ihi);
  }
}

/// What the sweep decided on one lattice row, `res` entries each.
struct SweptRow {
  const int* tri;        ///< Containing triangle id per column.
  const char* strict;    ///< 1 where the point is strictly inside tri.
  const double* interp;  ///< DT at the point.
};

/// The raster sweep of `dt` over the res x res midpoint lattice `lat` of
/// `region`, against `ref` (the reference sampled on the same lattice,
/// row-major).  Returns Σ|ref - DT| over every lattice point, combined in
/// reduce_rows order (the caller scales by the cell area), and hands each
/// row's decisions to on_row(j, SweptRow) — possibly from several
/// threads, each row exactly once.
///
/// Span emission: every alive triangle is scan-converted into per-row
/// candidate column spans once, O(triangles x covered rows).
/// Assignment: a point strictly inside a span candidate takes it directly
/// (strict containment is unique, so this is the triangle locate_from
/// would return for any hint).  Points on an edge or vertex — where the
/// answer is hint-dependent — fall back to locate_from seeded with the
/// previous point's triangle in the chunk (-1 at a chunk head): exactly
/// the remembering walk, replayed bit-for-bit.
/// Interpolation: interpolate_point gathered from the SoA mirror,
/// element-wise, so it vectorizes; the |ref - DT| fold stays serial in
/// point order, because the sum's rounding sequence is part of δ's bits.
template <typename OnRow>
double raster_sweep(const geo::Delaunay& dt, const num::Rect& region,
                    const num::MidpointLattice& lat, const double* ref,
                    OnRow&& on_row) {
  const std::size_t n = lat.nx();
  const std::span<const double> xs = lat.xs();
  const std::vector<int> alive = dt.alive_triangles();
  TriangleSoA soa;
  soa.build(dt, alive);
  std::vector<std::vector<RowSpan>> row_spans(n);
  std::size_t spans_emitted = 0;
  for (std::size_t s = 0; s < alive.size(); ++s) {
    const auto slot = static_cast<std::uint32_t>(s);
    for_each_covered_range(
        soa.a(slot), soa.b(slot), soa.c(slot), region, lat,
        static_cast<long>(n), [&](long j, long ilo, long ihi) {
          row_spans[static_cast<std::size_t>(j)].push_back(
              RowSpan{alive[s], slot, static_cast<int>(ilo),
                      static_cast<int>(ihi)});
          ++spans_emitted;
        });
  }
  for (auto& spans : row_spans) {
    std::sort(spans.begin(), spans.end(),
              [](const RowSpan& l, const RowSpan& r) {
                return l.ilo != r.ilo ? l.ilo < r.ilo : l.tri < r.tri;
              });
  }
  CPS_COUNT("core.delta.raster_spans", spans_emitted);

  return reduce_rows(n, [&](std::size_t row_begin, std::size_t row_end) {
    double s = 0.0;
    int hint = -1;
    std::size_t fast = 0;
    std::size_t fallback = 0;
    std::vector<RowSpan> active;
    std::vector<std::uint32_t> slots(n);
    std::vector<int> tris(n);
    std::vector<char> strict(n);
    std::vector<double> interp(n);
    for (std::size_t j = row_begin; j < row_end; ++j) {
      const double y = lat.y(j);
      const auto& spans = row_spans[j];
      std::size_t next = 0;
      active.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const int col = static_cast<int>(i);
        while (next < spans.size() && spans[next].ilo <= col) {
          active.push_back(spans[next++]);
        }
        const geo::Vec2 p{xs[i], y};
        int assigned = -1;
        std::uint32_t slot = 0;
        for (std::size_t k = 0; k < active.size();) {
          if (active[k].ihi < col) {
            active[k] = active.back();
            active.pop_back();
            continue;
          }
          const std::uint32_t c = active[k].slot;
          if (strictly_inside(soa.a(c), soa.b(c), soa.c(c), p)) {
            assigned = active[k].tri;
            slot = c;
            break;
          }
          ++k;
        }
        strict[i] = assigned >= 0 ? 1 : 0;
        if (assigned < 0) {
          assigned = dt.locate_from(p, hint);
          slot = soa.slot_of[static_cast<std::size_t>(assigned)];
          ++fallback;
        } else {
          ++fast;
        }
        hint = assigned;
        tris[i] = assigned;
        slots[i] = slot;
      }
      CPS_SIMD
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t t = slots[i];
        interp[i] = interpolate_point(soa.ax[t], soa.ay[t], soa.bx[t],
                                      soa.by[t], soa.cx[t], soa.cy[t],
                                      soa.za[t], soa.zb[t], soa.zc[t],
                                      soa.total[t], xs[i], y);
      }
      const double* ref_row = ref + j * n;
      for (std::size_t i = 0; i < n; ++i) s += std::abs(ref_row[i] - interp[i]);
      on_row(j, SweptRow{tris.data(), strict.data(), interp.data()});
    }
    CPS_COUNT("core.delta.raster_fast_assigns", fast);
    CPS_COUNT("core.delta.raster_fallback_locates", fallback);
    return s;
  });
}

}  // namespace cps::core::detail
