// Tests for the Foresighted Refinement Algorithm (core/fra.hpp).
#include "core/fra.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/cavity_fan.hpp"
#include "core/delta.hpp"
#include "field/analytic_fields.hpp"
#include "graph/geometric_graph.hpp"
#include "numerics/rng.hpp"
#include "oracle/fan_locate.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

field::GaussianMixtureField test_field() {
  // A GreenOrbs-like mixture: three bright patches over a dim base.
  return field::GaussianMixtureField(0.5, {{{25.0, 30.0}, 3.0, 8.0},
                                           {{70.0, 65.0}, 2.0, 12.0},
                                           {{45.0, 80.0}, 4.0, 6.0}});
}

FraConfig fast_config() {
  FraConfig cfg;
  cfg.error_grid = 50;  // Faster than the paper's 100 for unit tests.
  return cfg;
}

PlanRequest request(std::size_t k, double rc = 10.0) {
  return PlanRequest{kRegion, k, rc};
}

TEST(Fra, ConfigValidation) {
  FraConfig bad;
  bad.error_grid = 1;
  EXPECT_THROW(FraPlanner{bad}, std::invalid_argument);
  bad = FraConfig{};
  bad.curvature_radius = 0.0;
  EXPECT_THROW(FraPlanner{bad}, std::invalid_argument);
  FraPlanner ok{fast_config()};
  EXPECT_THROW(ok.plan(test_field(), request(5, 0.0)),
               std::invalid_argument);
}

/// Expects plan() to throw std::invalid_argument naming `field`.
void expect_rejected(const PlanRequest& req, const std::string& field) {
  FraPlanner planner{fast_config()};
  try {
    planner.plan(test_field(), req);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(Fra, RejectsNonFiniteRcAndBadRegions) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // `rc <= 0` alone let NaN through (a 1-node, 0-relay plan) and planned
  // normally at rc = inf.
  for (const double rc : {kNan, kInf, -kInf, 0.0, -1.0}) {
    SCOPED_TRACE("rc=" + std::to_string(rc));
    expect_rejected(request(5, rc), "request.rc");
  }
  // A NaN region used to throw from inside Delaunay::locate instead.
  const num::Rect bad_regions[] = {
      {kNan, 0.0, 100.0, 100.0}, {0.0, 0.0, kNan, 100.0},
      {0.0, -kInf, 100.0, 100.0}, {0.0, 0.0, 100.0, kInf},
      {0.0, 0.0, 0.0, 100.0},     {0.0, 50.0, 100.0, 50.0},
      {100.0, 0.0, 0.0, 100.0}};
  for (const num::Rect& r : bad_regions) {
    SCOPED_TRACE("region " + std::to_string(r.x0) + "," +
                 std::to_string(r.y0) + "," + std::to_string(r.x1) + "," +
                 std::to_string(r.y1));
    expect_rejected(PlanRequest{r, 5, 10.0}, "request.region");
    expect_rejected(PlanRequest{r, 0, 10.0}, "request.region");
  }
}

/// Checks the rebucket fan against the per-triangle oracle loop at `p`:
/// same triangle, same interpolated bits.
void expect_fan_matches_oracle(const geo::Delaunay& dt,
                               const std::vector<int>& created,
                               const detail::CavityFan& fan, geo::Vec2 p) {
  const detail::CavityFan::Hit got = fan.locate(p);
  const oracle::FanHit want = oracle::locate_in_fan(dt, created, p);
  ASSERT_EQ(got.triangle, want.triangle) << "at " << p.x << "," << p.y;
  if (want.triangle >= 0) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value),
              std::bit_cast<std::uint64_t>(want.value))
        << "at " << p.x << "," << p.y;
  }
}

TEST(CavityFan, MatchesPerTriangleLoopOnEdgesVerticesAndTolerance) {
  num::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    geo::Delaunay dt(kRegion);
    for (int c = 0; c < geo::Delaunay::kCorners; ++c) {
      dt.set_vertex_z(c, rng.uniform(-3.0, 3.0));
    }
    // Lattice-aligned sites give axis-parallel and diagonal fan edges that
    // pass exactly through representable points.
    for (int i = 0; i < 12; ++i) {
      const geo::Vec2 p = rng.uniform() < 0.5
                              ? geo::Vec2{12.5 * rng.uniform_int(1, 7),
                                          12.5 * rng.uniform_int(1, 7)}
                              : geo::Vec2{rng.uniform(1.0, 99.0),
                                          rng.uniform(1.0, 99.0)};
      dt.insert(p, rng.uniform(-5.0, 5.0));
    }
    const geo::Vec2 site = rng.uniform() < 0.5
                               ? geo::Vec2{12.5 * rng.uniform_int(1, 7) +
                                               6.25,
                                           12.5 * rng.uniform_int(1, 7)}
                               : geo::Vec2{rng.uniform(5.0, 95.0),
                                           rng.uniform(5.0, 95.0)};
    const geo::InsertResult ins = dt.insert(site, rng.uniform(-5.0, 5.0));
    if (!ins.inserted) continue;
    const std::vector<int>& created = ins.created_triangles;
    detail::CavityFan fan;
    fan.build(dt, created);

    std::vector<geo::Vec2> probes;
    for (const int tid : created) {
      const auto& t = dt.triangle(tid);
      for (int e = 0; e < 3; ++e) {
        const geo::Vec2 a = dt.vertex(t.v[e]).pos;
        const geo::Vec2 b = dt.vertex(t.v[(e + 1) % 3]).pos;
        probes.push_back(a);  // Fan vertices (shared by several triangles).
        const geo::Vec2 d = b - a;
        const geo::Vec2 n{-d.y, d.x};
        const double len = std::sqrt(n.x * n.x + n.y * n.y);
        for (const double u : {0.5, 0.25, 1.0 / 3.0, 0.875}) {
          const geo::Vec2 on = a + d * u;  // On (or an ulp off) the edge.
          probes.push_back(on);
          // Straddle the 1e-9 band on both sides of the edge.
          for (const double off : {-5e-9, -1e-9, -1e-10, 1e-10, 1e-9, 5e-9}) {
            probes.push_back(on + n * (off * 100.0 / len));
          }
        }
      }
      // The triangle's centroid: an interior point with a unique answer.
      probes.push_back((dt.vertex(t.v[0]).pos + dt.vertex(t.v[1]).pos +
                        dt.vertex(t.v[2]).pos) /
                       3.0);
    }
    for (int i = 0; i < 200; ++i) {
      probes.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    for (const geo::Vec2 p : probes) {
      expect_fan_matches_oracle(dt, created, fan, p);
    }
  }
}

TEST(Fra, ZeroBudgetIsEmpty) {
  FraPlanner planner(fast_config());
  EXPECT_TRUE(planner.plan(test_field(), request(0)).empty());
}

TEST(Fra, ProducesExactlyKDistinctPositionsInRegion) {
  FraPlanner planner(fast_config());
  const auto f = test_field();
  const Deployment d = planner.plan(f, request(40));
  ASSERT_EQ(d.size(), 40u);
  std::set<std::pair<double, double>> unique;
  for (const auto& p : d.positions) {
    EXPECT_TRUE(kRegion.contains(p.x, p.y));
    unique.insert({p.x, p.y});
  }
  EXPECT_EQ(unique.size(), 40u);
}

TEST(Fra, FirstSelectionIsGlobalMaxError) {
  // With an empty triangulation (corners pinned to f), the largest local
  // error on the mixture sits at the strongest off-plane feature; the
  // first chosen point must carry the maximal score of all steps.
  FraPlanner planner(fast_config());
  const auto result = planner.plan_detailed(test_field(), request(10));
  ASSERT_FALSE(result.steps.empty());
  for (const auto& step : result.steps) {
    EXPECT_LE(step.score, result.steps.front().score + 1e-12);
  }
}

TEST(Fra, DeploymentIsConnected) {
  FraPlanner planner(fast_config());
  const Deployment d = planner.plan(test_field(), request(30));
  EXPECT_TRUE(graph::GeometricGraph(d.positions, 10.0).is_connected());
}

TEST(Fra, ForesightOffCanDisconnect) {
  // Pure greedy refinement chases the three separated bumps; with Rc = 10
  // the result is (virtually always) a disconnected topology — which is
  // exactly why the foresight step exists.
  FraConfig cfg = fast_config();
  cfg.foresight = false;
  FraPlanner planner(cfg);
  const Deployment d = planner.plan(test_field(), request(12));
  EXPECT_FALSE(graph::GeometricGraph(d.positions, 10.0).is_connected());
}

TEST(Fra, RelayStepsAreFlaggedAndCounted) {
  FraPlanner planner(fast_config());
  const auto result = planner.plan_detailed(test_field(), request(30));
  std::size_t flagged = 0;
  for (const auto& s : result.steps) flagged += s.relay ? 1u : 0u;
  EXPECT_EQ(flagged, result.relay_count);
  EXPECT_GT(result.relay_count, 0u);  // Bumps are farther apart than Rc.
  EXPECT_EQ(result.steps.size(), result.deployment.size());
}

TEST(Fra, DeltaImprovesWithBudget) {
  FraPlanner planner(fast_config());
  const auto f = test_field();
  const DeltaMetric metric(kRegion, 50);
  const auto corners = CornerPolicy::kFieldValue;  // OSD knows f.
  const double d10 = metric.delta_of_deployment(
      f, planner.plan(f, request(10)).positions, corners);
  const double d60 = metric.delta_of_deployment(
      f, planner.plan(f, request(60)).positions, corners);
  EXPECT_LT(d60, d10);
}

TEST(Fra, BeatsRandomBaselineAtModestK) {
  // The Fig. 7 headline: FRA's delta well under random scatter's for
  // small/medium k.  Averaged over a few random seeds for stability.
  const auto f = test_field();
  const DeltaMetric metric(kRegion, 50);
  FraPlanner fra(fast_config());
  const auto corners = CornerPolicy::kFieldValue;  // OSD knows f.
  const double fra_delta = metric.delta_of_deployment(
      f, fra.plan(f, request(30)).positions, corners);
  double random_delta = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomPlanner random(seed);
    random_delta += metric.delta_of_deployment(
        f, random.plan(f, request(30)).positions, corners);
  }
  random_delta /= 5.0;
  EXPECT_LT(fra_delta, random_delta);
}

TEST(Fra, SelectionMeasuresAllProduceValidPlans) {
  const auto f = test_field();
  for (const auto measure :
       {SelectionMeasure::kLocalError, SelectionMeasure::kCurvature,
        SelectionMeasure::kProduct, SelectionMeasure::kRandom}) {
    FraConfig cfg = fast_config();
    cfg.measure = measure;
    cfg.error_grid = 30;  // Curvature grids are expensive; keep tests fast.
    FraPlanner planner(cfg);
    const Deployment d = planner.plan(f, request(15));
    EXPECT_EQ(d.size(), 15u);
    EXPECT_TRUE(graph::GeometricGraph(d.positions, 10.0).is_connected());
  }
}

TEST(Fra, RandomMeasureIsSeedDeterministic) {
  FraConfig cfg = fast_config();
  cfg.measure = SelectionMeasure::kRandom;
  cfg.seed = 123;
  FraPlanner a(cfg);
  FraPlanner b(cfg);
  const auto f = test_field();
  EXPECT_EQ(a.plan(f, request(10)).positions,
            b.plan(f, request(10)).positions);
}

TEST(Fra, RelayInsertionKeepsCandidateBucketsConsistent) {
  // Regression: place_relays used to insert relay vertices into the DT
  // without running the Garland-Heckbert displaced-candidate update, so
  // every candidate bucketed under a triangle the relay's cavity destroyed
  // kept a dead (soon recycled) triangle id and a stale error.  The
  // planner audits bucket consistency at the end of every plan; any relay
  // run must leave zero stale candidates.
  FraPlanner planner(fast_config());
  const auto result = planner.plan_detailed(test_field(), request(30));
  EXPECT_GT(result.relay_count, 0u);  // The scenario must exercise relays.
  EXPECT_EQ(result.stale_candidates, 0u);
}

TEST(Fra, BucketsStayConsistentThroughRelayThenContinue) {
  // A sparse lattice with a tight radius exhausts the affordable
  // candidates mid-plan (no affordable candidate -> connect -> continue
  // refining), the worst case for stale buckets: selections after the
  // relay burst consult the rebucketed errors.
  FraConfig cfg = fast_config();
  cfg.error_grid = 12;
  FraPlanner planner(cfg);
  const auto result = planner.plan_detailed(test_field(), request(30, 4.0));
  EXPECT_GT(result.relay_count, 0u);
  EXPECT_EQ(result.stale_candidates, 0u);
  // At least one refinement selection must come after a relay, otherwise
  // this test would not distinguish trailing-relay plans from the
  // relay-then-continue path it is meant to pin down.
  bool relay_seen = false;
  bool selection_after_relay = false;
  for (const auto& step : result.steps) {
    relay_seen = relay_seen || step.relay;
    selection_after_relay =
        selection_after_relay || (relay_seen && !step.relay);
  }
  EXPECT_TRUE(selection_after_relay);
}

// Property sweep: connectivity holds across budgets (the paper's k range).
class FraBudgetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FraBudgetSweep, ConnectedAtEveryBudget) {
  const std::size_t k = GetParam();
  FraPlanner planner(fast_config());
  const Deployment d = planner.plan(test_field(), request(k));
  EXPECT_EQ(d.size(), k);
  EXPECT_TRUE(graph::GeometricGraph(d.positions, 10.0).is_connected())
      << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Budgets, FraBudgetSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u, 20u, 50u,
                                           80u));

}  // namespace
}  // namespace cps::core
