#include "core/cma_delta.hpp"

#include <algorithm>
#include <limits>

namespace cps::core {

namespace {

/// reconstruct_surface's corner rule: nearest living sample, ties to the
/// latest (== highest node index, matching latest-insertion-wins).  0.0
/// with no living nodes, like folding over an empty sample list.
double nearest_sample_z(const CmaSimulation& sim, const field::Field& slice,
                        geo::Vec2 corner) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t nearest = sim.node_count();
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    if (!sim.is_alive(i)) continue;
    const double d2 = geo::distance_sq(corner, sim.positions()[i]);
    if (d2 <= best) {
      best = d2;
      nearest = i;
    }
  }
  return nearest == sim.node_count() ? 0.0
                                     : slice.value(sim.positions()[nearest]);
}

}  // namespace

CmaDeltaTracker::CmaDeltaTracker(const CmaSimulation& sim,
                                 const DeltaMetric& metric)
    : metric_(&metric),
      dt_(metric.region()),
      slice_time_(sim.time()),
      node_vid_(sim.node_count(), -1),
      node_pos_(sim.positions()) {
  const field::FieldSlice slice(sim.environment(), slice_time_);
  // Mirror reconstruct_surface(sense_at_nodes()): living samples inserted
  // in node order, then the corner scaffolding overwritten by the
  // nearest-sample rule.
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    if (!sim.is_alive(i)) continue;
    const geo::Vec2 p = node_pos_[i];
    const geo::InsertResult ins = dt_.insert(p, slice.value(p));
    acquire(i, ins.vertex);
  }
  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    dt_.set_vertex_z(corner,
                     nearest_sample_z(sim, slice, dt_.vertex(corner).pos));
  }
  delta_ = std::make_unique<IncrementalDelta>(metric, slice, dt_);
}

void CmaDeltaTracker::acquire(std::size_t node, int vid) {
  node_vid_[node] = vid;
  if (++vid_refs_[vid] > 1) ++stats_.merges;
}

void CmaDeltaTracker::release(std::size_t node) {
  const int vid = node_vid_[node];
  node_vid_[node] = -1;
  auto it = vid_refs_.find(vid);
  if (--it->second > 0) return;
  vid_refs_.erase(it);
  // Corner scaffolding is permanent: a node that aliased a corner leaves
  // the vertex behind (its z is re-derived by refresh_corners anyway).
  if (vid < geo::Delaunay::kCorners) return;
  const geo::RemoveResult removal = dt_.remove(vid);
  delta_->mark(dt_, removal);
}

void CmaDeltaTracker::set_z(int vid, double z) {
  dt_.set_vertex_z(vid, z);
  const auto v = static_cast<std::size_t>(vid);
  if (z_flag_.size() <= v) z_flag_.resize(dt_.vertex_count(), 0);
  if (z_flag_[v] == 0) {
    z_flag_[v] = 1;
    z_vids_.push_back(vid);
  }
}

void CmaDeltaTracker::refresh_corners(const CmaSimulation& sim) {
  const field::FieldSlice slice(sim.environment(), slice_time_);
  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    const double z = nearest_sample_z(sim, slice, dt_.vertex(corner).pos);
    if (z != dt_.vertex(corner).z) set_z(corner, z);
  }
}

void CmaDeltaTracker::mark_z_stars() {
  if (z_vids_.empty()) return;
  // The union of the re-valued vertices' stars, ascending and without
  // repeats: one pass over the triangle slots instead of one star walk
  // per vertex.
  stars_.clear();
  for (std::size_t t = 0; t < dt_.triangle_slots(); ++t) {
    const int tid = static_cast<int>(t);
    if (!dt_.triangle_alive(tid)) continue;
    for (const int v : dt_.triangle(tid).v) {
      const auto vi = static_cast<std::size_t>(v);
      if (vi < z_flag_.size() && z_flag_[vi] != 0) {
        stars_.push_back(tid);
        break;
      }
    }
  }
  delta_->mark_z(dt_, stars_);
  for (const int vid : z_vids_) z_flag_[static_cast<std::size_t>(vid)] = 0;
  z_vids_.clear();
}

double CmaDeltaTracker::update(const CmaSimulation& sim) {
  ++stats_.slots;
  // Reference first: the slice advanced, so re-fold the stored surface
  // against it once (cheap, no geometry).  The whole slot — moves,
  // deaths, revivals, the sensor refresh and the corners — is then marked
  // into one batch and committed once, against the final triangulation.
  slice_time_ = sim.time();
  const field::FieldSlice slice(sim.environment(), slice_time_);
  delta_->retarget(*metric_, slice);

  fresh_.assign(sim.node_count(), 0);
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    const bool alive = sim.is_alive(i);
    const bool was_alive = node_vid_[i] != -1;
    const geo::Vec2 p = sim.positions()[i];
    if (was_alive && !alive) {
      release(i);
      ++stats_.node_deaths;
      continue;
    }
    if (!was_alive) {
      node_pos_[i] = p;
      if (!alive) continue;
      const geo::InsertResult ins = dt_.insert(p, slice.value(p));
      delta_->mark(dt_, ins);
      acquire(i, ins.vertex);
      fresh_[i] = 1;
      ++stats_.node_revivals;
      continue;
    }
    if (p.x == node_pos_[i].x && p.y == node_pos_[i].y) continue;
    // The node moved.  A solely-held non-corner vertex relocates as one
    // fused event; an aliased (or corner) vertex stays for its other
    // holders and the node re-inserts at the destination.
    const int vid = node_vid_[i];
    node_pos_[i] = p;
    fresh_[i] = 1;
    ++stats_.node_moves;
    if (vid >= geo::Delaunay::kCorners && vid_refs_[vid] == 1) {
      const geo::MoveResult moved = dt_.move_vertex(vid, p, slice.value(p));
      delta_->mark(dt_, moved);
      vid_refs_.erase(vid);
      acquire(i, moved.vertex);
    } else {
      release(i);
      const geo::InsertResult ins = dt_.insert(p, slice.value(p));
      delta_->mark(dt_, ins);
      acquire(i, ins.vertex);
    }
  }

  // Sensor refresh: unmoved living nodes re-sense the advanced slice.  A
  // node that moved or revived this slot and is its vertex's only holder
  // carried a fresh z in its event already; an aliased vertex is
  // re-sensed through every holder in node order, so the highest holder
  // wins exactly as latest-insertion-wins would.
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    const int vid = node_vid_[i];
    if (vid < geo::Delaunay::kCorners) continue;  // Dead (-1) or corner.
    if (fresh_[i] != 0 && vid_refs_[vid] == 1) continue;
    const double z = slice.value(node_pos_[i]);
    if (z != dt_.vertex(vid).z) set_z(vid, z);
  }
  refresh_corners(sim);
  mark_z_stars();
  delta_->commit(dt_);
  return delta_->value();
}

}  // namespace cps::core
