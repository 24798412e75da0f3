// Per-slot δ trajectory for CMA through the cavity-local incremental
// engine (core/delta_incremental.hpp).
//
// CmaSimulation::current_delta rebuilds a triangulation from scratch and
// runs a full O(res²) lattice sweep every slot.  CmaDeltaTracker instead
// keeps ONE persistent triangulation mirroring the living deployment and
// folds each slot's churn into it as Delaunay events — moved nodes become
// move_vertex reports, deaths become removals, revivals insertions, and
// the sensor refresh and corner rule one z-only star mark.  The whole
// slot is marked into one IncrementalDelta batch and committed once, so a
// slot re-evaluates each lattice cell at most once (≤ res² points) however
// many nodes moved.  The reference slice advancing is
// a retarget (fold-only O(res²) pass, no point location); under a
// time-varying environment that pass is irreducible (the whole reference
// moved), so the asymptotic win is in the geometry work, and under a
// slow/static environment slots cost only their churn.
//
// Equivalence contract: after every update(), value() is bit-identical to
// metric.delta(FieldSlice(env, sim.time()), triangulation()) — the
// incremental oracle protocol over the tracker's own triangulation.  It
// is NOT bit-identical to sim.current_delta(metric): that path
// re-triangulates from scratch each slot, and cocircular degeneracies
// resolve by insertion history, so the two surfaces may differ on
// measure-zero ties (the fig10 --incremental flag is opt-in for exactly
// this reason; the sweep bench reports both).
//
// Node/vertex aliasing: several nodes can sense from one position (chase
// pile-ups) and a mover can land on an occupied site, so vertices are
// reference-counted; a vertex is removed only when its last node leaves.
// Corner scaffolding ids are never removed — corner z follows
// reconstruct_surface's nearest-sample rule (ties to the highest node
// index, matching latest-insertion-wins) and changes flow through star
// z-events.
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/cma.hpp"
#include "core/delta.hpp"
#include "core/delta_incremental.hpp"
#include "geometry/delaunay.hpp"

namespace cps::core {

/// Incremental per-slot δ tracker over a CmaSimulation.  Not thread-safe;
/// call update() exactly once after each sim.step(), from one thread.
class CmaDeltaTracker {
 public:
  struct Stats {
    std::size_t slots = 0;
    std::size_t node_moves = 0;     ///< move_vertex events applied.
    std::size_t node_deaths = 0;    ///< Vertices released by deaths.
    std::size_t node_revivals = 0;  ///< Vertices (re-)inserted by revivals.
    std::size_t merges = 0;         ///< Nodes aliased onto an occupied vertex.
  };

  /// Seeds the tracker from the simulation's current state (one full
  /// sweep).  The metric is retained by reference and must outlive the
  /// tracker; its region should equal the simulation's.
  CmaDeltaTracker(const CmaSimulation& sim, const DeltaMetric& metric);

  /// Folds the slot's churn in: retargets to the current time slice,
  /// marks node moves/deaths/revivals as Delaunay events, refreshes the
  /// sensed z values of the nodes that did not move and the corner
  /// scaffolding (one star mark), commits the batch once, and returns the
  /// slot's tracked δ.
  double update(const CmaSimulation& sim);

  /// The running δ of the tracked deployment against the last update's
  /// (or construction's) reference slice.
  double value() const noexcept { return delta_->value(); }

  const geo::Delaunay& triangulation() const noexcept { return dt_; }
  const Stats& stats() const noexcept { return stats_; }
  const IncrementalDelta::Stats& delta_stats() const noexcept {
    return delta_->stats();
  }

 private:
  /// Takes one reference on `vid` for `node`.
  void acquire(std::size_t node, int vid);
  /// Drops `node`'s reference; removes the vertex when it was the last
  /// holder (never for corner scaffolding).  Feeds the removal into the
  /// δ engine.
  void release(std::size_t node);
  /// Re-values a vertex and stamps it for this slot's star marking.
  void set_z(int vid, double z);
  /// Re-applies the nearest-sample corner rule to the corner scaffolding.
  void refresh_corners(const CmaSimulation& sim);
  /// Marks the union of the stars of every vertex re-valued this slot as
  /// one z-only change.
  void mark_z_stars();

  const DeltaMetric* metric_;
  geo::Delaunay dt_;
  std::unique_ptr<IncrementalDelta> delta_;
  double slice_time_ = 0.0;
  std::vector<int> node_vid_;           ///< Node -> vertex id (-1 = dead).
  std::vector<geo::Vec2> node_pos_;     ///< Position backing node_vid_.
  std::unordered_map<int, int> vid_refs_;
  std::vector<char> fresh_;             ///< Node got its z this slot.
  std::vector<char> z_flag_;            ///< Vertex re-valued this slot.
  std::vector<int> z_vids_;             ///< The flagged vertices.
  std::vector<int> stars_;              ///< mark_z_stars scratch.
  Stats stats_;
};

}  // namespace cps::core
