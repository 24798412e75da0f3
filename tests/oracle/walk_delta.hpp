// Reference δ for the equivalence tests: the remembering walk.
//
// Every lattice point is located with Delaunay::locate_from, seeded with
// the previous point's triangle, and interpolated with
// geo::interpolate_linear — no span tables, no SoA mirror, nothing shared
// with the production sweep (core/delta_detail.hpp) beyond the chunk-layout
// rule, which is part of what δ means bitwise: each chunk of rows restarts
// its walk from hint -1, and chunk partial sums combine in ascending order.
#pragma once

#include "core/delta.hpp"
#include "field/field.hpp"
#include "geometry/delaunay.hpp"

namespace cps::oracle {

/// δ of `dt` against `reference` on `metric`'s lattice, by the remembering
/// walk.  Bit-identical to metric.delta(reference, dt) at every thread
/// count, armed or disarmed timeline.
double walk_delta(const core::DeltaMetric& metric,
                  const field::Field& reference, const geo::Delaunay& dt);

}  // namespace cps::oracle
