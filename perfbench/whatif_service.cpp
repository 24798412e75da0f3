// whatif_service: δ what-if traffic through PlannerService.
//
// One op is one neighbourhood query of a greedy local search: one ScoreJob
// for the current base deployment plus kMovesPerQuery WhatIfJob moves (a
// seeded node to a seeded point within ±kMoveRadius m), submitted together.
// The client waits for every future, then commits the best improving move
// as the new base.  Every kRestartEvery queries the search restarts from a
// fresh seed-drawn RandomPlanner base of kNodes nodes, so the op mix does
// not depend on run length.  The field is a GridField snapshot of the 10:00
// GreenOrbs frame, interned and prewarmed during set-up.
//
// The Score job is submitted in the middle of the moves.  The first move
// of a new base builds the service's base state while the other pool thread
// waits, so a query always starts with that build; with the Score in the
// middle it overlaps move work whichever batch the dispatcher cuts first.
// Submitted first, it would run alone or beside the build depending on how
// fast the dispatcher woke, and that race alone moves a query's time by up
// to a third.
#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <memory>
#include <vector>

#include "core/delta.hpp"
#include "core/planner.hpp"
#include "core/planner_service.hpp"
#include "core/reconstruction.hpp"
#include "field/grid_field.hpp"
#include "harness.hpp"
#include "numerics/rng.hpp"
#include "trace/greenorbs.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 100;
constexpr double kRc = 10.0;
constexpr std::size_t kResolution = 100;
constexpr std::size_t kSnapshotGrid = 201;
constexpr std::size_t kMovesPerQuery = 32;
constexpr std::size_t kScoreSlot = kMovesPerQuery / 2;
constexpr double kMoveRadius = 3.0;
constexpr std::size_t kRestartEvery = 50;
constexpr std::size_t kWarmupQueries = 2 * kRestartEvery;
/// Queries delta_mean and component_frac_mean average over: 100 bases,
/// since both vary strongly from one random base to the next.
constexpr std::size_t kFixedQueries = 5000;
/// One query in kOracleEvery (seeded) has one seeded probe checked against a
/// fresh sweep of the identically mutated base triangulation.
constexpr std::uint64_t kOracleEvery = 4;
constexpr auto kPolicy = core::CornerPolicy::kFieldValue;

using DeploymentPtr = std::shared_ptr<const core::Deployment>;

/// The base triangulation exactly as the service builds it: samples
/// inserted in node order, corners valued from the field.  Returns the
/// vertex id of every node through `vertex_of_node`.
geo::Delaunay base_triangulation(const field::Field& f,
                                 const core::Deployment& base,
                                 std::vector<int>& vertex_of_node) {
  geo::Delaunay dt(kRegion);
  vertex_of_node.clear();
  for (const core::Sample& s : core::take_samples(f, base.positions)) {
    vertex_of_node.push_back(dt.insert(s.position, s.z).vertex);
  }
  for (int c = 0; c < geo::Delaunay::kCorners; ++c) {
    dt.set_vertex_z(c, f.value(dt.vertex(c).pos));
  }
  return dt;
}

class WhatIfService final : public Workload {
 public:
  explicit WhatIfService(const Options& o)
      : check_metric_(kRegion, kResolution),
        base_rng_(num::Rng(o.seed).fork(1)),
        move_rng_(num::Rng(o.seed).fork(2)),
        check_rng_(num::Rng(o.seed).fork(3)) {
    const trace::GreenOrbsField env{trace::GreenOrbsConfig{}};
    field_ = std::make_shared<field::GridField>(
        env.snapshot(trace::minutes(10, 0), kSnapshotGrid, kSnapshotGrid));
    service_ = std::make_unique<core::PlannerService>();
    snapshot_ = service_->intern(field_);
    service_->prewarm(snapshot_, kRegion, kResolution);

    // Warm-up queries on bases of their own: the first base builds, batch
    // dispatch and the reference lattice all settle here.
    num::Rng warm_bases = num::Rng(o.seed).fork(4);
    num::Rng warm_moves = num::Rng(o.seed).fork(5);
    for (std::size_t q = 0; q < kWarmupQueries; ++q) {
      if (q % kRestartEvery == 0) base_ = random_base(warm_bases);
      query(warm_moves, nullptr);
    }
  }

  double tail_percentile() const override { return 75.0; }
  std::size_t fixed_ops() const override { return kFixedQueries; }

  void op(std::size_t i, SpanLog* spans) override {
    if (i % kRestartEvery == 0) base_ = random_base(base_rng_);
    query(move_rng_, spans);
  }

  void after_op(std::size_t i, SpanLog* spans) override {
    const field::Field& f = *field_;
    bool ok = last_.all_ok;
    double direct = 0.0;
    {
      const ScopedSpan span(spans, "core.delta.score");
      direct = check_metric_.delta_of_deployment(f, last_.base->positions,
                                                 kPolicy);
    }
    ok = ok && same_bits(direct, last_.score_result.delta);
    if (check_rng_.uniform_int(0, kOracleEvery - 1) == 0) {
      ++oracle_checks_;
      const auto j = static_cast<std::size_t>(
          check_rng_.uniform_int(0, kMovesPerQuery - 1));
      std::vector<int> vid;
      geo::Delaunay dt = base_triangulation(f, *last_.base, vid);
      const Move& m = last_.moves[j];
      dt.move_vertex(vid[m.node], m.to, f.value(m.to));
      ok = ok && same_bits(check_metric_.delta(f, dt), last_.results[j].delta);
    }
    ++checked_;
    if (!ok) ++failed_;
    if (last_.committed) ++commits_;
    if (i < kFixedQueries) {
      delta_sum_ += last_.score_result.delta;
      frac_sum_ += largest_component_fraction(last_.base->positions, kRc);
    }
    if (spans != nullptr) probe(spans);
  }

  void begin_traced() override {
    stats0_ = service_->stats();
    traced_ = {};
  }

  Outcome finish(const SpanLog* spans, std::size_t traced_ops) override {
    Outcome out;
    out.checked_ops = checked_;
    out.failed_ops = failed_;
    out.delta_mean = delta_sum_ / static_cast<double>(kFixedQueries);
    out.component_frac_mean = frac_sum_ / static_cast<double>(kFixedQueries);
    out.info["oracle_checks"] = std::to_string(oracle_checks_);
    out.info["commits"] = std::to_string(commits_);
    const core::PlannerService::Stats st = service_->stats();
    out.info["service_batches"] = std::to_string(st.batches);
    out.info["corner_move"] = corner_move();
    if (spans != nullptr && traced_ops > 0) {
      const double n = static_cast<double>(traced_ops);
      out.layers["core.planner_service.queue_wait_ms.score"] =
          percentile(traced_.wait_score, 50.0);
      out.layers["core.planner_service.queue_wait_ms.whatif"] =
          percentile(traced_.wait_whatif, 50.0);
      out.layers["core.planner_service.exec_ms.score"] =
          percentile(traced_.exec_score, 50.0);
      out.layers["core.planner_service.exec_ms.whatif"] =
          percentile(traced_.exec_whatif, 50.0);
      out.layers["core.planner_service.batch_size_mean"] =
          static_cast<double>(st.completed - stats0_.completed) /
          static_cast<double>(std::max<std::uint64_t>(
              st.batches - stats0_.batches, 1));
      const double hits =
          static_cast<double>(st.base_state_hits - stats0_.base_state_hits);
      const double misses = static_cast<double>(st.base_state_misses -
                                                stats0_.base_state_misses);
      out.layers["core.planner_service.base_state_hit_ratio"] =
          hits / std::max(hits + misses, 1.0);
      out.layers["search.commit_ratio"] =
          static_cast<double>(traced_.commits) / n;
      out.layers["core.delta.score_ms"] = spans->mean_ms("core.delta.score");
      out.layers["geometry.copy_ms"] = spans->mean_ms("geometry.copy");
    }
    return out;
  }

 private:
  struct Move {
    std::size_t node = 0;
    geo::Vec2 to;
  };

  /// Everything one query produced, kept for the untimed checks.
  struct Query {
    DeploymentPtr base;
    std::vector<Move> moves;
    core::JobResult score_result;
    std::vector<core::JobResult> results;  ///< One per move.
    bool all_ok = true;
    bool committed = false;
  };

  static bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  DeploymentPtr random_base(num::Rng& rng) const {
    const core::PlanRequest req{kRegion, kNodes, kRc, 0, rng.next_u64()};
    return std::make_shared<const core::Deployment>(
        core::RandomPlanner().plan(*field_, req));
  }

  /// Submits one neighbourhood query, waits for it and commits the best
  /// improving move.
  void query(num::Rng& rng, SpanLog* spans) {
    Query q;
    q.base = base_;
    q.moves.resize(kMovesPerQuery);
    for (Move& m : q.moves) {
      m.node = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
      // Redrawn until strictly inside the region.  Clamping would pile
      // targets onto the boundary, and a node moved exactly onto a region
      // corner coincides with the triangulation's corner scaffolding: later
      // what-if moves of that node then fail.
      const geo::Vec2 from = base_->positions[m.node];
      do {
        m.to = {from.x + rng.uniform(-kMoveRadius, kMoveRadius),
                from.y + rng.uniform(-kMoveRadius, kMoveRadius)};
      } while (!(m.to.x > kRegion.x0 && m.to.x < kRegion.x1 &&
                 m.to.y > kRegion.y0 && m.to.y < kRegion.y1));
    }
    // futures[kScoreSlot] is the Score job, the others the moves in order.
    std::vector<std::future<core::JobResult>> futures;
    futures.reserve(kMovesPerQuery + 1);
    {
      const ScopedSpan span(spans, "service.submit");
      for (std::size_t j = 0; j <= kMovesPerQuery; ++j) {
        if (j == kScoreSlot) {
          core::ScoreJob score;
          score.field = snapshot_;
          score.deployment = *base_;
          score.region = kRegion;
          score.resolution = kResolution;
          score.policy = kPolicy;
          futures.push_back(service_->submit(std::move(score)));
          continue;
        }
        const Move& m = q.moves[j < kScoreSlot ? j : j - 1];
        core::WhatIfJob job;
        job.field = snapshot_;
        job.base = base_;
        job.op = core::WhatIfJob::Op::kMove;
        job.node = m.node;
        job.to = m.to;
        job.region = kRegion;
        job.resolution = kResolution;
        job.policy = kPolicy;
        futures.push_back(service_->submit(std::move(job)));
      }
    }
    {
      // Newest first: once the last job is done the rest almost always are,
      // so the client sleeps and wakes once per query rather than per job.
      const ScopedSpan span(spans, "service.wait");
      q.results.resize(futures.size());
      for (std::size_t j = futures.size(); j-- > 0;) {
        q.results[j] = futures[j].get();
      }
    }
    q.score_result = q.results[kScoreSlot];
    q.results.erase(q.results.begin() + kScoreSlot);
    q.all_ok = q.score_result.ok;
    for (const core::JobResult& r : q.results) q.all_ok = q.all_ok && r.ok;
    std::size_t best = kMovesPerQuery;
    double best_delta = q.score_result.delta;
    for (std::size_t j = 0; j < kMovesPerQuery; ++j) {
      if (q.results[j].delta < best_delta) {
        best_delta = q.results[j].delta;
        best = j;
      }
    }
    if (best < kMovesPerQuery) {
      auto next = std::make_shared<core::Deployment>(*base_);
      next->positions[q.moves[best].node] = q.moves[best].to;
      base_ = std::move(next);
      q.committed = true;
    }
    last_ = std::move(q);
  }

  /// Per-layer probes and service timings of the traced run.
  void probe(SpanLog* spans) {
    const field::Field& f = *field_;
    if (last_.committed) ++traced_.commits;
    const core::JobResult& score = last_.score_result;
    traced_.wait_score.push_back(score.latency_ms - score.exec_ms);
    traced_.exec_score.push_back(score.exec_ms);
    for (const core::JobResult& r : last_.results) {
      traced_.wait_whatif.push_back(r.latency_ms - r.exec_ms);
      traced_.exec_whatif.push_back(r.exec_ms);
    }
    std::vector<int> vid;
    const geo::Delaunay dt = base_triangulation(f, *last_.base, vid);
    {
      const ScopedSpan span(spans, "geometry.copy");
      const geo::Delaunay copy(dt);
      (void)copy;
    }
  }

  /// Known library defect, reported so that a run shows when it is fixed:
  /// a what-if move of a node lying exactly on a region corner fails,
  /// because the base state maps that node onto the corner scaffolding.
  /// The move generator keeps targets strictly inside the region for this
  /// reason.  Returns "ok" or the job's error.
  std::string corner_move() {
    auto base = std::make_shared<core::Deployment>(*base_);
    base->positions[0] = {kRegion.x0, kRegion.y0};
    core::WhatIfJob job;
    job.field = snapshot_;
    job.base = std::move(base);
    job.op = core::WhatIfJob::Op::kMove;
    job.node = 0;
    job.to = {kRegion.x0 + 1.0, kRegion.y0 + 1.0};
    job.region = kRegion;
    job.resolution = kResolution;
    job.policy = kPolicy;
    const core::JobResult r = service_->submit(std::move(job)).get();
    return r.ok ? "ok" : r.error;
  }

  std::shared_ptr<field::GridField> field_;
  core::DeltaMetric check_metric_;
  std::unique_ptr<core::PlannerService> service_;
  core::FieldSnapshotPtr snapshot_;
  num::Rng base_rng_;
  num::Rng move_rng_;
  num::Rng check_rng_;
  DeploymentPtr base_;
  Query last_;
  std::size_t checked_ = 0;
  std::size_t failed_ = 0;
  std::size_t oracle_checks_ = 0;
  std::size_t commits_ = 0;
  double delta_sum_ = 0.0;
  double frac_sum_ = 0.0;
  core::PlannerService::Stats stats0_;
  struct {
    std::size_t commits = 0;
    std::vector<double> wait_score, wait_whatif, exec_score, exec_whatif;
  } traced_;
};

}  // namespace

std::unique_ptr<Workload> setup_whatif_service(const Options& options) {
  return std::make_unique<WhatIfService>(options);
}

}  // namespace perfbench
