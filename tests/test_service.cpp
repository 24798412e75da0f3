// PlannerService: the concurrent deployment-query engine
// (core/planner_service.hpp).
//
// The load-bearing claims: every job result is bit-identical to the
// equivalent direct call at the same pool size (Score vs
// DeltaMetric::delta_of_deployment, Plan vs Planner::plan, WhatIf vs a
// fresh DeltaMetric::delta of the identically mutated triangulation);
// snapshots and what-if base states are shared, not rebuilt per job; and
// a failing job reports through its future instead of tearing down the
// batch.  The equivalence tests run at pool sizes 1 and 4 — CI's
// service-equivalence leg re-runs them under tsan with CPS_THREADS=4.
#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/fra.hpp"
#include "core/planner_service.hpp"
#include "core/reconstruction.hpp"
#include "field/analytic_fields.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};
constexpr std::size_t kRes = 64;

std::shared_ptr<const field::Field> make_field() {
  return std::make_shared<field::PeaksField>(kRegion);
}

/// Pins the process pool for one scope; restores the default after.
struct PoolGuard {
  explicit PoolGuard(std::size_t n) { par::set_thread_count(n); }
  ~PoolGuard() { par::set_thread_count(0); }
};

TEST(PlannerService, ScoreMatchesDirectDelta) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    PoolGuard pool(threads);
    const auto field = make_field();
    const DeltaMetric metric(kRegion, kRes);
    PlannerService service;
    const auto snapshot = service.intern(field);
    std::vector<std::future<JobResult>> futures;
    std::vector<double> expected;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto d =
          RandomPlanner(seed).plan(*field, {kRegion, 20 + seed, 10.0});
      expected.push_back(metric.delta_of_deployment(
          *field, d.positions, CornerPolicy::kFieldValue));
      futures.push_back(service.submit(
          ScoreJob{snapshot, d, kRegion, kRes, CornerPolicy::kFieldValue}));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const JobResult r = futures[i].get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.delta, expected[i]);
      EXPECT_GE(r.latency_ms, r.exec_ms);
    }
  }
}

TEST(PlannerService, PlanMatchesDirectPlanner) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    PoolGuard pool(threads);
    const auto field = make_field();
    PlannerService service;
    const auto snapshot = service.intern(field);

    const PlanRequest fra_req{kRegion, 15, 10.0, /*lattice=*/40};
    const PlanRequest rnd_req{kRegion, 30, 10.0, 0, /*seed=*/7};
    const PlanRequest fpp_req{kRegion, 25, 10.0, /*lattice=*/30};
    const PlanRequest grid_req{kRegion, 24, 10.0};

    auto f_fra = service.submit(PlanJob{snapshot, PlannerKind::kFra, fra_req});
    auto f_rnd =
        service.submit(PlanJob{snapshot, PlannerKind::kRandom, rnd_req});
    auto f_fpp = service.submit(
        PlanJob{snapshot, PlannerKind::kFarthestPoint, fpp_req});
    auto f_grid =
        service.submit(PlanJob{snapshot, PlannerKind::kGrid, grid_req,
                               /*score_resolution=*/kRes});

    EXPECT_EQ(f_fra.get().deployment.positions,
              FraPlanner().plan(*field, fra_req).positions);
    EXPECT_EQ(f_rnd.get().deployment.positions,
              RandomPlanner().plan(*field, rnd_req).positions);
    EXPECT_EQ(f_fpp.get().deployment.positions,
              FarthestPointPlanner().plan(*field, fpp_req).positions);
    const JobResult grid = f_grid.get();
    const auto direct_grid = GridPlanner().plan(*field, grid_req);
    EXPECT_EQ(grid.deployment.positions, direct_grid.positions);
    const DeltaMetric metric(kRegion, kRes);
    EXPECT_EQ(grid.delta,
              metric.delta_of_deployment(*field, direct_grid.positions,
                                         CornerPolicy::kFieldValue));
  }
}

TEST(PlannerService, WhatIfMatchesFreshDeltaOfMutatedSurface) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    PoolGuard pool(threads);
    const auto field = make_field();
    // Random interior positions, so node i maps to vertex kCorners + i in
    // the reconstruction below; then node 25 on the (0, 0) corner and
    // node 26 coincident with node 7 — two nodes sharing a vertex.
    Deployment deployment = RandomPlanner(3).plan(*field, {kRegion, 25, 10.0});
    deployment.positions.push_back({0.0, 0.0});
    deployment.positions.push_back(deployment.positions[7]);
    const auto base = std::make_shared<Deployment>(std::move(deployment));

    // Direct oracle: mutate a copy of the same reconstruction, score it
    // with a fresh full sweep.  A vertex that another node (or the corner
    // scaffolding) still sits on stays: moving one of its nodes only adds
    // the destination, removing one changes nothing.
    const DeltaMetric metric(kRegion, kRes);
    const auto samples = take_samples(*field, base->positions);
    const geo::Delaunay dt_base = reconstruct_surface(
        samples, kRegion, CornerPolicy::kFieldValue, field.get());
    struct Case {
      WhatIfJob::Op op;
      std::size_t node;
      geo::Vec2 to;
      std::function<void(geo::Delaunay&)> mutate;
    };
    const auto insert_at = [&](geo::Vec2 to) {
      return [&field, to](geo::Delaunay& dt) {
        dt.insert(to, field->value(to));
      };
    };
    const std::vector<Case> cases = {
        {WhatIfJob::Op::kMove, 3, {12.25, 47.5},
         [&](geo::Delaunay& dt) {
           dt.move_vertex(geo::Delaunay::kCorners + 3, {12.25, 47.5},
                          field->value({12.25, 47.5}));
         }},
        {WhatIfJob::Op::kInsert, 0, {71.5, 23.25}, insert_at({71.5, 23.25})},
        {WhatIfJob::Op::kRemove, 5, {0.0, 0.0},
         [](geo::Delaunay& dt) { dt.remove(geo::Delaunay::kCorners + 5); }},
        {WhatIfJob::Op::kMove, 25, {33.5, 61.25}, insert_at({33.5, 61.25})},
        {WhatIfJob::Op::kRemove, 25, {0.0, 0.0}, [](geo::Delaunay&) {}},
        {WhatIfJob::Op::kMove, 26, {64.75, 18.5}, insert_at({64.75, 18.5})},
        {WhatIfJob::Op::kMove, 7, {64.75, 18.5}, insert_at({64.75, 18.5})},
        {WhatIfJob::Op::kRemove, 26, {0.0, 0.0}, [](geo::Delaunay&) {}},
    };

    PlannerService service;
    const auto snapshot = service.intern(field);
    std::vector<std::future<JobResult>> futures;
    for (const Case& c : cases) {
      futures.push_back(service.submit(
          WhatIfJob{snapshot, base, c.op, c.node, c.to, kRegion, kRes}));
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("case " + std::to_string(i));
      geo::Delaunay dt = dt_base;
      cases[i].mutate(dt);
      const JobResult r = futures[i].get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.delta, metric.delta(*field, dt));
    }
  }
}

TEST(PlannerService, BaseStateIsBuiltOnceAndShared) {
  PoolGuard pool(4);
  const auto field = make_field();
  const auto base = std::make_shared<Deployment>(
      GridPlanner::make_grid(kRegion, 16));
  PlannerService service;
  const auto snapshot = service.intern(field);
  std::vector<std::future<JobResult>> futures;
  for (std::size_t node = 0; node < 8; ++node) {
    futures.push_back(service.submit(WhatIfJob{
        snapshot, base, WhatIfJob::Op::kMove, node, {50.5, 50.5}, kRegion,
        kRes}));
  }
  for (auto& f : futures) {
    const JobResult r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.base_state_misses, 1u);
  EXPECT_EQ(stats.base_state_hits, 7u);
  EXPECT_EQ(stats.whatif_jobs, 8u);
}

TEST(PlannerService, SnapshotInterningDeduplicatesByContentKey) {
  PlannerService service;
  const auto field = make_field();
  const auto a = service.intern(field);
  const auto b = service.intern(field);
  EXPECT_EQ(a.get(), b.get());  // Same snapshot object, not just same key.
  const auto stats = service.stats();
  EXPECT_EQ(stats.snapshot_misses, 1u);
  EXPECT_EQ(stats.snapshot_hits, 1u);
}

TEST(PlannerService, FailedJobsReportThroughTheirFuture) {
  PoolGuard pool(2);
  const auto field = make_field();
  const auto base = std::make_shared<Deployment>(
      GridPlanner::make_grid(kRegion, 9));
  PlannerService service;
  const auto snapshot = service.intern(field);

  // Out-of-region destination and out-of-range node index both fail their
  // own job only.
  auto f_outside = service.submit(WhatIfJob{
      snapshot, base, WhatIfJob::Op::kMove, 0, {500.0, 500.0}, kRegion,
      kRes});
  auto f_badnode = service.submit(WhatIfJob{
      snapshot, base, WhatIfJob::Op::kRemove, 99, {0.0, 0.0}, kRegion,
      kRes});
  auto f_nullfield = service.submit(ScoreJob{nullptr, *base, kRegion, kRes});
  const JobResult outside = f_outside.get();
  EXPECT_FALSE(outside.ok);
  EXPECT_FALSE(outside.error.empty());
  EXPECT_FALSE(f_badnode.get().ok);
  EXPECT_FALSE(f_nullfield.get().ok);

  // The service survives and keeps serving.
  auto f_ok = service.submit(ScoreJob{snapshot, *base, kRegion, kRes});
  EXPECT_TRUE(f_ok.get().ok);
  EXPECT_EQ(service.stats().errors, 3u);
}

TEST(PlannerService, DrainsBeyondMaxBatchAndWaitsIdle) {
  PoolGuard pool(4);
  PlannerService::Config config;
  config.max_batch = 4;
  PlannerService service(config);
  const auto snapshot = service.intern(make_field());
  const auto d = GridPlanner::make_grid(kRegion, 12);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        service.submit(ScoreJob{snapshot, d, kRegion, /*resolution=*/16}));
  }
  service.wait_idle();
  EXPECT_EQ(service.queue_depth(), 0u);
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_GE(stats.batches, 3u);
  EXPECT_LE(stats.max_batch_size, 4u);
}

TEST(PlannerService, DestructorDrainsOutstandingJobs) {
  std::vector<std::future<JobResult>> futures;
  {
    PlannerService service;
    const auto snapshot = service.intern(make_field());
    const auto d = GridPlanner::make_grid(kRegion, 8);
    for (int i = 0; i < 6; ++i) {
      futures.push_back(
          service.submit(ScoreJob{snapshot, d, kRegion, /*resolution=*/16}));
    }
  }  // No wait_idle: the destructor must finish every accepted job.
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
}

}  // namespace
}  // namespace cps::core
