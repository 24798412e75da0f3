// Incremental Delaunay triangulation of a rectangular region.
//
// This is the interpolation engine the paper builds everything on: the
// rebuilt surface z* = DT(x, y) is the piecewise-linear interpolant over
// the Delaunay triangulation of the sample positions (Section 3.1), and
// FRA's refinement loop (Table 1) inserts one max-error vertex at a time.
//
// Design choices:
//  * The triangulation is seeded with the four region corners, so it covers
//    the rectangle exactly at all times and every in-region query point has
//    a containing triangle — no super-triangle cleanup, no NaN holes at the
//    hull like Matlab's griddata.  The corners are interpolation
//    scaffolding; planners decide what z to pin there (see
//    core/reconstruction).
//  * Bowyer-Watson insertion with triangle adjacency and a remembering walk
//    for point location.  Each insert reports the removed and created
//    triangle ids so callers (FRA) can re-bucket their sample points in
//    O(cavity) instead of O(region).
//  * Predicates are the filtered ones from geometry/predicates.hpp, so
//    grid-aligned (cocircular) inputs stay consistent: a point reported
//    *on* a circumcircle is left out of the cavity, which still yields a
//    valid (if non-unique) Delaunay triangulation.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "geometry/triangle.hpp"
#include "geometry/vec2.hpp"
#include "numerics/quadrature.hpp"

namespace cps::geo {

/// A triangulation vertex: position plus the sampled environment value
/// carried for piecewise-linear surface evaluation.
struct DtVertex {
  Vec2 pos;
  double z = 0.0;
};

/// Triangle record.  `v` lists vertex ids in CCW order; `nbr[i]` is the id
/// of the triangle sharing the edge opposite `v[i]` (-1 on the region
/// boundary).  Dead records are recycled through a free list.
struct DtTriangle {
  std::array<int, 3> v{-1, -1, -1};
  std::array<int, 3> nbr{-1, -1, -1};
  bool alive = false;
};

/// Outcome of an insertion.
struct InsertResult {
  /// Id of the vertex now at the requested position (existing id when the
  /// point duplicated a previous vertex).
  int vertex = -1;
  /// False when the point coincided with an existing vertex and nothing
  /// changed structurally.
  bool inserted = false;
  /// True when a duplicate-tolerance hit rewrote the existing vertex's z
  /// to a different value: the topology is untouched but the interpolated
  /// surface changed over the vertex's star.  δ-caching callers that only
  /// watch the cavity lists would silently under-report without this flag
  /// (the staleness bug this field closes).
  bool z_changed = false;
  /// The updated vertex's incident triangles when z_changed — exactly the
  /// region over which the surface moved.  Empty otherwise.
  std::vector<int> star_triangles;
  /// Triangles destroyed / created by this insertion (empty when
  /// !inserted).
  std::vector<int> removed_triangles;
  std::vector<int> created_triangles;
};

/// Outcome of a vertex removal.
struct RemoveResult {
  /// The now-dead vertex id.  Its slot is recycled by a later insert (the
  /// next one, when no other removal intervenes).
  int vertex = -1;
  /// The removed vertex's former star / the ear-clipped hole fan.  Ids in
  /// the two lists never overlap (ears are allocated before the star is
  /// freed), and the created triangles cover exactly the star's region.
  std::vector<int> removed_triangles;
  std::vector<int> created_triangles;
};

/// Outcome of a relocation (remove + insert fused into one report).
struct MoveResult {
  /// Vertex id now holding the moved sample: normally the moved vertex's
  /// own id (the removal frees its slot and the insertion recycles it),
  /// an existing vertex's id when the destination duplicated one.
  int vertex = -1;
  /// False when the destination coincided with an existing vertex (the
  /// move degenerated to a removal plus a z update on that vertex).
  bool inserted = false;
  /// See InsertResult::z_changed — set on the duplicate-destination path.
  bool z_changed = false;
  /// Every triangle alive *now* whose region the move touched: the hole
  /// fan of the removal (minus any ears the insertion re-removed), the
  /// insertion's fan, and the duplicate path's star.  Their union covers
  /// both the old star's region and the new cavity's, which is the
  /// contract incremental δ consumers re-raster against.
  std::vector<int> changed_triangles;
};

/// Incremental Delaunay triangulation over a rectangle.
class Delaunay {
 public:
  /// Number of scaffolding corner vertices (ids 0..3, CCW from (x0, y0)).
  static constexpr int kCorners = 4;

  /// Seeds the triangulation with the four corners of `bounds` (z = 0; use
  /// set_vertex_z to pin corner values).  Throws std::invalid_argument for
  /// an empty or inverted rectangle.
  explicit Delaunay(const num::Rect& bounds);

  /// Inserts a sample at p with value z.  Points within `duplicate_tol` of
  /// an existing vertex update that vertex's z instead of inserting.
  /// Throws std::invalid_argument when p is non-finite or lies outside the
  /// region.
  InsertResult insert(Vec2 p, double z, double duplicate_tol = 1e-9);

  /// Removes a previously inserted vertex and re-triangulates its star's
  /// hole with a Delaunay ear-clipping fan.  The id turns dead:
  /// vertex_alive(id) is false and it can no longer be removed or moved
  /// until a later insert recycles the slot (vertex slots go through a
  /// free list like triangle slots, so vertex_count() stays bounded by the
  /// peak number of live vertices).  Ids of live vertices never change.
  /// Throws std::invalid_argument for corner scaffolding ids (the
  /// rectangle must stay covered) or already-dead ids.
  RemoveResult remove(int vertex);

  /// remove(vertex) followed by insert(p, z, duplicate_tol), fused into a
  /// single change report whose changed_triangles cover both the old star
  /// and the new cavity (see MoveResult).  Same preconditions as the two
  /// steps; a non-finite or out-of-region `p` throws before anything
  /// changes.
  MoveResult move_vertex(int vertex, Vec2 p, double z,
                         double duplicate_tol = 1e-9);

  const num::Rect& bounds() const noexcept { return bounds_; }

  /// Total number of vertex slots, dead ones included; use vertex_alive
  /// to filter.
  std::size_t vertex_count() const noexcept { return vertices_.size(); }
  const DtVertex& vertex(int id) const { return vertices_.at(
      static_cast<std::size_t>(id)); }
  /// False once remove() has retired the id (until an insert recycles
  /// it).  Dead vertices keep their last pos/z for inspection but belong
  /// to no alive triangle.
  bool vertex_alive(int id) const {
    return vertex_alive_.at(static_cast<std::size_t>(id)) != 0;
  }
  void set_vertex_z(int id, double z);

  /// Alive triangles incident to `vertex`, in CCW ring order around it.
  /// Throws std::invalid_argument for dead ids.  O(star + locate).
  std::vector<int> vertex_star(int vertex) const;

  /// Total number of triangle slots; use triangle_alive to filter.
  std::size_t triangle_slots() const noexcept { return triangles_.size(); }
  std::size_t triangle_count() const noexcept { return alive_count_; }
  bool triangle_alive(int id) const {
    return triangles_.at(static_cast<std::size_t>(id)).alive;
  }
  const DtTriangle& triangle(int id) const {
    return triangles_.at(static_cast<std::size_t>(id));
  }
  /// Geometric view of an alive triangle.
  Triangle triangle_geometry(int id) const;

  /// Ids of all alive triangles (freshly collected each call).
  std::vector<int> alive_triangles() const;

  /// Id of the alive triangle containing p (ties on shared edges resolved
  /// arbitrarily but deterministically).  `hint` accelerates the walk.
  /// Throws std::invalid_argument when p is non-finite or outside the
  /// region.
  int locate(Vec2 p, int hint = -1) const;

  /// Like locate(), but never reads or updates the shared walk hint:
  /// callers thread their own hint (-1 = canonical start, the first alive
  /// triangle).  Safe to call concurrently from any number of threads as
  /// long as no insert() runs; for a point strictly inside a triangle the
  /// result is hint-independent.
  int locate_from(Vec2 p, int hint) const;

  /// Piecewise-linear surface value DT(p).
  double interpolate(Vec2 p) const;

  // --- Validation hooks (used by tests; O(V*T) where noted) ---

  /// Structural soundness: CCW triangles, symmetric adjacency, boundary
  /// edges only on the region border.
  bool validate_topology() const;

  /// Empty-circumcircle property over all alive triangles and all vertices
  /// (O(V*T)); cocircular points are tolerated.
  bool is_delaunay() const;

  /// Sum of alive triangle areas (should equal bounds().area()).
  double total_area() const;

  /// The shared remembering-walk hint (for staleness regression tests).
  /// Invariant: -1, or an alive triangle — free_triangle resets a hint
  /// that references the slot it frees, so a recycled slot can never be
  /// walked from as if it were the old neighborhood.
  int debug_locate_hint() const noexcept { return locate_hint_; }

 private:
  /// Throws std::invalid_argument unless p is finite and inside bounds_
  /// (within a 1e-9 tolerance).
  void require_in_region(Vec2 p) const;
  int alloc_vertex(Vec2 p, double z);
  int alloc_triangle();
  void free_triangle(int id);
  bool in_cavity(int tri, Vec2 p) const;
  int walk_from(int start, Vec2 p) const;
  /// vertex_star plus the ordered link chain: chain[i] holds the link
  /// vertex and the triangle outside edge (chain[i], chain[i+1]) (-1 on
  /// the region border).  For a border vertex the closing edge's outside
  /// is -1 and the chain's closing segment runs along the border.
  struct LinkEdge {
    int vertex;
    int outside;
  };
  std::vector<int> collect_star(int vertex, std::vector<LinkEdge>* chain)
      const;

  num::Rect bounds_;
  std::vector<DtVertex> vertices_;
  std::vector<char> vertex_alive_;
  std::vector<int> free_vertices_;
  std::vector<DtTriangle> triangles_;
  std::vector<int> free_list_;
  std::size_t alive_count_ = 0;
  mutable int locate_hint_ = 0;

  // Epoch-stamped scratch for cavity classification (avoids clearing).
  mutable std::vector<unsigned> cavity_epoch_;
  mutable std::vector<char> cavity_state_;
  mutable unsigned epoch_ = 0;
};

}  // namespace cps::geo
