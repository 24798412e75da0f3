#include "oracle/walk_delta.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "numerics/quadrature.hpp"
#include "obs/timeline.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::oracle {

double walk_delta(const core::DeltaMetric& metric,
                  const field::Field& reference, const geo::Delaunay& dt) {
  const std::size_t res = metric.resolution();
  const num::MidpointLattice lat(metric.region(), res, res);
  const std::span<const double> xs = lat.xs();
  // The chunk layout: 4-row chunks while the timeline is armed or the pool
  // has several workers, one chain over every row otherwise.
  const std::size_t chunk =
      obs::timeline().armed() || par::thread_count() > 1 ? 4 : res;
  std::vector<double> ref(res);
  double sum = 0.0;
  for (std::size_t row_begin = 0; row_begin < res; row_begin += chunk) {
    const std::size_t row_end = std::min(row_begin + chunk, res);
    double s = 0.0;
    int hint = -1;
    for (std::size_t j = row_begin; j < row_end; ++j) {
      const double y = lat.y(j);
      reference.value_row(y, xs, ref.data());
      for (std::size_t i = 0; i < res; ++i) {
        const geo::Vec2 p{xs[i], y};
        hint = dt.locate_from(p, hint);
        const auto& t = dt.triangle(hint);
        s += std::abs(ref[i] - geo::interpolate_linear(
                                   dt.triangle_geometry(hint),
                                   dt.vertex(t.v[0]).z, dt.vertex(t.v[1]).z,
                                   dt.vertex(t.v[2]).z, p));
      }
    }
    sum += s;
  }
  return sum * lat.hx() * lat.hy();
}

}  // namespace cps::oracle
