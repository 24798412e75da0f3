// FRA's Garland–Heckbert rebucket locator: the fan of triangles one
// insertion created, flattened once per insertion.
//
// After an insert, every candidate bucketed in a removed triangle is
// re-located among the created triangles (first match in created order)
// and its error |f - DT| recomputed.  CavityFan reads each created
// triangle's vertices, z values and barycentric denominator once per
// insertion, and interpolates from the weights its containment test
// already computed.  The expressions are Triangle::barycentric's and
// Triangle::contains' verbatim (same orient2d_value calls, same
// total == 0 all-zero-weights case, same 1e-9 tolerance) and
// interpolate_linear's weighted sum, so the triangle picked and the
// value's bits equal a per-triangle Triangle::contains + interpolate_linear
// loop (tests/oracle/fan_locate.hpp; test_core_fra compares the two).
#pragma once

#include <span>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/predicates.hpp"

namespace cps::core::detail {

class CavityFan {
 public:
  struct Hit {
    int triangle = -1;  ///< -1 when no created triangle accepts the point.
    double value = 0.0;  ///< DT at the point (valid when triangle >= 0).
  };

  /// Captures the created triangles of one insertion, in report order.
  void build(const geo::Delaunay& dt, std::span<const int> created) {
    fan_.clear();
    for (const int tid : created) {
      const auto& t = dt.triangle(tid);
      const geo::DtVertex& a = dt.vertex(t.v[0]);
      const geo::DtVertex& b = dt.vertex(t.v[1]);
      const geo::DtVertex& c = dt.vertex(t.v[2]);
      fan_.push_back(Entry{a.pos, b.pos, c.pos, a.z, b.z, c.z,
                           geo::orient2d_value(a.pos, b.pos, c.pos), tid});
    }
  }

  /// The first fan triangle, in created order, whose closed barycentric
  /// containment (Triangle::contains' default 1e-9 tolerance) accepts p,
  /// with DT(p) interpolated from the accepted weights.
  Hit locate(geo::Vec2 p) const noexcept {
    constexpr double tol = 1e-9;
    for (const Entry& e : fan_) {
      double w0 = 0.0;
      double w1 = 0.0;
      double w2 = 0.0;
      if (e.total != 0.0) {
        w0 = geo::orient2d_value(p, e.b, e.c) / e.total;
        w1 = geo::orient2d_value(e.a, p, e.c) / e.total;
        w2 = 1.0 - w0 - w1;
      }
      if (w0 >= -tol && w1 >= -tol && w2 >= -tol) {
        return Hit{e.triangle, w0 * e.za + w1 * e.zb + w2 * e.zc};
      }
    }
    return Hit{};
  }

 private:
  struct Entry {
    geo::Vec2 a, b, c;
    double za, zb, zc;
    double total;  ///< orient2d_value(a, b, c).
    int triangle;
  };
  std::vector<Entry> fan_;
};

}  // namespace cps::core::detail
