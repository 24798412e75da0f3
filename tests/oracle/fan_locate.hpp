// Reference for FRA's rebucket locator (core/cavity_fan.hpp): the
// per-triangle loop the rebucket ran before the created fan was
// flattened.  Each created triangle is rebuilt as a geo::Triangle, tested
// with Triangle::contains (1e-9 barycentric tolerance) in created order,
// and the first hit is interpolated with geo::interpolate_linear, which
// recomputes the weights from scratch.
#pragma once

#include <span>

#include "geometry/delaunay.hpp"
#include "geometry/triangle.hpp"

namespace cps::oracle {

struct FanHit {
  int triangle = -1;  ///< -1 when no created triangle contains the point.
  double value = 0.0;
};

inline FanHit locate_in_fan(const geo::Delaunay& dt,
                            std::span<const int> created, geo::Vec2 p) {
  for (const int fresh : created) {
    if (dt.triangle_geometry(fresh).contains(p)) {
      const auto& t = dt.triangle(fresh);
      return FanHit{fresh, geo::interpolate_linear(
                               dt.triangle_geometry(fresh),
                               dt.vertex(t.v[0]).z, dt.vertex(t.v[1]).z,
                               dt.vertex(t.v[2]).z, p)};
    }
  }
  return FanHit{};
}

}  // namespace cps::oracle
