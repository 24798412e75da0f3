// Cavity-local incremental δ.
//
// The δ metric re-evaluated from scratch is an O(res²) lattice sweep, but
// a Bowyer–Watson event already reports exactly which triangles changed —
// and the rebuilt surface is untouched outside them.  IncrementalDelta
// keeps the full per-point state of one raster sweep (triangle
// assignment, strictness, |f - DT| contribution) plus per-chunk partial
// sums.  Events are folded in batches: mark() records the lattice cells a
// report's triangles cover, commit() re-evaluates the union of the
// batch's marks once — O(changed area) per batch instead of O(res²), and
// never more than res² points however many events the batch holds.
// apply() is a one-event batch.
//
// Oracle protocol (DESIGN.md §13): after every commit, value() is
// bit-identical to a fresh DeltaMetric::delta() of the same triangulation
// (and therefore to the remembering-walk oracle in tests/oracle).  The
// build is the same raster sweep delta() runs (core/delta_detail.hpp),
// kept per point; after that it holds because
//  * every cell whose triangle died or whose surface moved during the
//    batch is marked: a mark rasterises the report's triangles as they
//    are at that event (created fans cover every removed triangle, stars
//    cover every z change), so a later recycling of a triangle id cannot
//    hide an earlier change;
//  * assignments are re-derived through the sweep's own rules, in three
//    tiers.  (a) Span tier: the batch's marked triangles that are still
//    alive are scan-converted again, and every dirty point strictly
//    inside one of them takes it directly — strict containment is unique
//    and hint-independent, so this is the triangle a fresh sweep assigns.
//    (b) Keep: a stored strict assignment survives while its triangle is
//    alive and still strictly contains the point (safe even for a
//    recycled id).  (c) Walk: every remaining dirty point (guard-band
//    edge/vertex points) replays locate_from with the exact hint the fresh
//    sweep would carry (the previous point's assignment in the captured
//    chunk layout, -1 at a chunk head), visiting the dirty rows in
//    ascending point order;
//  * non-strict (edge/vertex) points are re-walked at EVERY commit that
//    holds a topology event, dirty region or not — their assignment is
//    hint-dependent, so staleness is never allowed to accumulate through
//    them;
//  * per-point contributions are interpolated through the sweep's
//    expression verbatim (core/delta_detail.hpp), and dirty chunks are
//    re-folded serially in point order, preserving the sum's rounding
//    sequence (float addition does not re-associate).
//
// The chunk layout (detail::chunk_rows: one chunk vs 4-row chunks) is
// captured from the telemetry/thread state at build; rebase() recaptures
// it.  Change the thread count or arm the timeline mid-stream and value() is
// comparing against a layout delta() no longer uses — rebase first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/delta.hpp"
#include "field/field.hpp"
#include "geometry/delaunay.hpp"
#include "numerics/quadrature.hpp"

namespace cps::core {

/// Stateful cavity-local δ accumulator over one (metric, reference) pair.
/// Not thread-safe; mark events from the thread that owns the
/// triangulation, right after each one happens (a mark rasterises the
/// report's triangles as they are at that moment), and commit before
/// reading value().
class IncrementalDelta {
 public:
  /// Cumulative work accounting (the bench_perf `delta.incremental`
  /// record and the ≥10× savings gate read these).
  struct Stats {
    std::size_t events = 0;              ///< Committed batches.
    std::size_t points_reevaluated = 0;  ///< Lattice cells re-assigned/-interpolated.
    std::size_t rows_touched = 0;        ///< Lattice rows containing such cells.
    std::size_t span_assigns = 0;        ///< Dirty points strictly inside a marked triangle.
    std::size_t keeps = 0;               ///< Dirty points whose assignment survived.
    std::size_t relocates = 0;           ///< Dirty points re-walked via locate_from.
    std::size_t rebuilds = 0;            ///< Full sweeps (construction + rebase).
    std::size_t retargets = 0;           ///< Reference swaps (fold-only passes).
    /// Lattice points one full sweep evaluates (res²): events *
    /// full_sweep_points is what re-sweeping after every commit would
    /// have cost.
    std::size_t full_sweep_points = 0;
  };

  /// Builds the tracker with the raster sweep of `dt` against
  /// `reference` on `metric`'s lattice.  The reference lattice is pinned
  /// through the metric's cache (shared with other evaluations of the
  /// same field).  The metric itself is not retained.
  IncrementalDelta(const DeltaMetric& metric, const field::Field& reference,
                   const geo::Delaunay& dt);

  /// Records one insertion report into the open batch.  A structural
  /// insert marks the created cavity; a duplicate-tolerance hit with
  /// z_changed marks the star (without the flag this event is invisible
  /// and the running δ silently drifts); a pure duplicate marks nothing.
  void mark(const geo::Delaunay& dt, const geo::InsertResult& r);

  /// Records one removal report (the hole fan).
  void mark(const geo::Delaunay& dt, const geo::RemoveResult& r);

  /// Records one relocation report (changed_triangles, which cover both
  /// the old star and the new cavity).
  void mark(const geo::Delaunay& dt, const geo::MoveResult& r);

  /// Records a z-only change: the surface moved over `star_triangles`
  /// (the union of the stars of the re-valued vertices), topology
  /// untouched.
  void mark_z(const geo::Delaunay& dt, std::span<const int> star_triangles);

  /// Folds the open batch into value(): every marked lattice cell is
  /// re-assigned (only when the batch holds a topology event) and
  /// re-interpolated against `dt`, and its chunk re-folded.  A batch of
  /// any length costs one scan of its alive marked triangles, one pass
  /// over the dirty rows, and one re-walk of the points neither of those
  /// resolves (guard-band and non-strict points).  No-op without an open
  /// batch.
  void commit(const geo::Delaunay& dt);

  /// One-event batch: mark(dt, r) then commit(dt).
  template <typename Report>
  void apply(const geo::Delaunay& dt, const Report& r) {
    mark(dt, r);
    commit(dt);
  }

  /// Swaps the reference field without touching the triangulation state:
  /// pins the new reference lattice and re-folds every chunk from the
  /// stored per-point surface values — O(res²) additions, no point
  /// location and no interpolation.  The metric must have this tracker's
  /// region and resolution (throws std::invalid_argument otherwise).
  /// CMA's per-slot trajectory retargets when the reference slice
  /// advances.
  void retarget(const DeltaMetric& metric, const field::Field& reference);

  /// Full re-raster against a (possibly different) triangulation,
  /// recapturing the chunk layout.  Equivalence tests rebase to
  /// cross-check the from-scratch path; callers that changed the thread
  /// count or armed the timeline mid-stream must rebase too.
  void rebase(const geo::Delaunay& dt);

  /// The running δ: ascending fold of the chunk partial sums times the
  /// cell area — exactly DeltaMetric::delta()'s final arithmetic.
  double value() const noexcept;

  const Stats& stats() const noexcept { return stats_; }
  std::size_t resolution() const noexcept { return res_; }

 private:
  void rebuild(const geo::Delaunay& dt);
  /// Opens a batch on the first mark after a commit (bumps the epoch).
  void open_batch();
  /// Marks every lattice cell covered by `tris` dirty (epoch-stamped) and
  /// records the alive ones for the commit's span tier.
  void mark_dirty(const geo::Delaunay& dt, std::span<const int> tris);
  /// Span tier: assigns (and interpolates) every dirty point strictly
  /// inside one of the batch's marked triangles that is still alive, and
  /// stamps it resolved.  Returns the number of points assigned.
  std::size_t assign_spans(const geo::Delaunay& dt);
  bool chunk_first(std::size_t k) const noexcept;
  std::size_t chunk_of(std::size_t k) const noexcept;
  void refold_chunk(std::size_t c);

  num::Rect region_;
  std::size_t res_ = 0;
  num::MidpointLattice lat_;
  std::shared_ptr<const std::vector<double>> ref_rows_;
  std::size_t chunk_rows_ = 0;  ///< detail::chunk_rows at the last build.

  std::vector<int> assign_;        ///< Point -> containing triangle id.
  std::vector<char> strict_;       ///< Point strictly inside assign_?
  /// DT(p) at the point (raster phase-2 bits, degenerate guard applied).
  /// Stored instead of |ref - DT| so a reference swap is fold-only.
  std::vector<double> interp_;
  std::vector<double> chunk_sums_; ///< Serial point-order |ref-DT| fold.
  /// Sorted indices of the non-strict points (re-walked every topology
  /// event; typically O(res) edge crossings).
  std::vector<std::uint32_t> fallback_;

  // Epoch-stamped dirty scratch (avoids clearing res² flags per batch).
  // A batch owns two stamps: point_epoch_[k] == epoch_ marks a dirty
  // point, epoch_ + 1 one the span tier already resolved; epochs advance
  // by 2 per batch.  row_epoch_[j] == epoch_ marks a row holding dirty
  // points — the commit visits those rows in ascending order, which is
  // the point order the walk's hint chain needs, without sorting.
  std::vector<std::uint32_t> point_epoch_;
  std::vector<std::uint32_t> row_epoch_;
  std::uint32_t epoch_ = 0;
  /// The open batch's marked triangles (alive at their mark).  Empty
  /// between batches, so copying a committed tracker copies no scratch.
  std::vector<int> batch_tris_;
  bool batch_open_ = false;
  /// The open batch holds an insert/remove/move: assignments must be
  /// re-derived, not just re-interpolated.
  bool batch_topology_ = false;

  Stats stats_;
};

}  // namespace cps::core
