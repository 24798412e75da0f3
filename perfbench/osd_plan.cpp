// osd_plan: static OSD planning, the paper's Fig. 6/7 query.
//
// One op is one FraPlanner::plan_detailed call at k = 100, Rc = 10 on the
// 100 x 100 candidate lattice, with δ tracked by a res-100 DeltaMetric.
// Every op plans against a fresh FieldSlice of the canonical GreenOrbs
// field at a seed-drawn instant in 09:00-15:00 that never repeats within a
// run, so the reference-lattice cache misses on every op.  Instants are
// drawn in blocks of kStrata stratified draws (one per 3-minute stratum,
// in seeded order), so every block covers the whole window and the first
// block, which delta_mean averages, is the same mix on every seed.
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "core/delta.hpp"
#include "core/fra.hpp"
#include "core/reconstruction.hpp"
#include "graph/geometric_graph.hpp"
#include "harness.hpp"
#include "numerics/rng.hpp"
#include "trace/greenorbs.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBudget = 100;
constexpr double kRc = 10.0;
constexpr std::size_t kLattice = 100;
constexpr std::size_t kResolution = 100;
constexpr double kWindowStart = trace::minutes(9, 0);
constexpr double kWindowEnd = trace::minutes(15, 0);
constexpr std::size_t kStrata = 120;
constexpr std::size_t kWarmupOps = 6;
/// One op in kOracleEvery (seeded) gets the δ oracle check.
constexpr std::uint64_t kOracleEvery = 8;

class OsdPlan final : public Workload {
 public:
  explicit OsdPlan(const Options& o)
      : env_(trace::GreenOrbsConfig{}),
        track_metric_(kRegion, kResolution),
        check_metric_(kRegion, kResolution),
        probe_metric_(kRegion, kResolution),
        times_rng_(num::Rng(o.seed).fork(1)),
        check_rng_(num::Rng(o.seed).fork(2)) {
    core::FraConfig cfg;
    cfg.error_grid = kLattice;
    planner_untracked_ = std::make_unique<core::FraPlanner>(cfg);
    cfg.track_delta = &track_metric_;
    planner_ = std::make_unique<core::FraPlanner>(cfg);
    request_ = core::PlanRequest{kRegion, kBudget, kRc, kLattice, 0};

    // Warm-up ops on instants of their own, then the timed instants start.
    num::Rng warm = num::Rng(o.seed).fork(3);
    for (std::size_t i = 0; i < kWarmupOps; ++i) {
      const double t = fresh_time(warm.uniform(kWindowStart, kWindowEnd));
      const field::FieldSlice slice(env_, t);
      last_ = planner_->plan_detailed(slice, request_);
    }
  }

  double tail_percentile() const override { return 97.0; }
  std::size_t fixed_ops() const override { return kStrata; }

  void op(std::size_t i, SpanLog* spans) override {
    const field::FieldSlice slice(env_, time_of(i));
    const ScopedSpan span(spans, "core.fra.plan_detailed");
    last_ = planner_->plan_detailed(slice, request_);
  }

  void after_op(std::size_t i, SpanLog* spans) override {
    const field::FieldSlice slice(env_, time_of(i));
    const auto& positions = last_.deployment.positions;
    bool ok = positions.size() <= kBudget && last_.stale_candidates == 0 &&
              std::isfinite(last_.final_delta) && last_.final_delta >= 0.0;
    for (const geo::Vec2 p : positions) ok = ok && kRegion.contains(p.x, p.y);
    const double frac = largest_component_fraction(positions, kRc);
    ok = ok && frac == 1.0;
    if (check_rng_.uniform_int(0, kOracleEvery - 1) == 0) {
      ++oracle_checks_;
      const double direct = check_metric_.delta_of_deployment(
          slice, positions, core::CornerPolicy::kFieldValue);
      ok = ok && std::bit_cast<std::uint64_t>(direct) ==
                     std::bit_cast<std::uint64_t>(last_.final_delta);
    }
    ++checked_;
    if (!ok) ++failed_;
    if (i < kStrata) {
      delta_sum_ += last_.final_delta;
      frac_sum_ += frac;
    }
    if (spans != nullptr) probe(slice, spans);
  }

  void begin_traced() override { traced_ = {}; }

  Outcome finish(const SpanLog* spans, std::size_t traced_ops) override {
    Outcome out;
    out.checked_ops = checked_;
    out.failed_ops = failed_;
    out.delta_mean = delta_sum_ / static_cast<double>(kStrata);
    out.component_frac_mean = frac_sum_ / static_cast<double>(kStrata);
    out.info["oracle_checks"] = std::to_string(oracle_checks_);
    if (spans != nullptr && traced_ops > 0) {
      const double n = static_cast<double>(traced_ops);
      const double plan_ms = spans->mean_ms("core.fra.plan");
      out.layers["core.fra.plan_ms"] = plan_ms;
      out.layers["core.delta_incremental.track_ms"] =
          spans->mean_ms("core.fra.plan_detailed") - plan_ms;
      out.layers["core.delta_incremental.points_per_event"] =
          static_cast<double>(traced_.points) /
          static_cast<double>(std::max<std::size_t>(traced_.events, 1));
      out.layers["field.lattice_ms"] = spans->mean_ms("field.lattice");
      out.layers["geometry.reconstruct_ms"] =
          spans->mean_ms("geometry.reconstruct");
      out.layers["graph.components_ms"] = spans->mean_ms("graph.components");
      out.layers["core.fra.relays_per_plan"] =
          static_cast<double>(traced_.relays) / n;
      out.layers["core.fra.stale_candidates"] =
          static_cast<double>(traced_.stale);
    }
    return out;
  }

 private:
  /// Instant of timed op i: block i / kStrata, stratum perm[i % kStrata].
  double time_of(std::size_t i) {
    while (times_.size() <= i) {
      std::vector<std::size_t> perm(kStrata);
      for (std::size_t s = 0; s < kStrata; ++s) perm[s] = s;
      times_rng_.shuffle(perm);
      const double width = (kWindowEnd - kWindowStart) / kStrata;
      for (const std::size_t s : perm) {
        times_.push_back(fresh_time(
            kWindowStart + width * (static_cast<double>(s) +
                                    times_rng_.uniform())));
      }
    }
    return times_[i];
  }

  /// `t`, nudged until it differs from every instant already used.
  double fresh_time(double t) {
    while (!used_.insert(t).second) t = std::nextafter(t, kWindowEnd);
    return t;
  }

  /// Per-layer probes of the traced run, on the op's own inputs.
  void probe(const field::FieldSlice& slice, SpanLog* spans) {
    const auto& positions = last_.deployment.positions;
    traced_.events += last_.delta_stats.events;
    traced_.points += last_.delta_stats.points_reevaluated;
    traced_.relays += last_.relay_count;
    traced_.stale += last_.stale_candidates;
    {
      const ScopedSpan span(spans, "core.fra.plan");
      planner_untracked_->plan(slice, request_);
    }
    probe_metric_.clear_reference_cache();
    {
      const ScopedSpan span(spans, "field.lattice");
      probe_metric_.reference_lattice(slice);
    }
    const std::vector<core::Sample> samples =
        core::take_samples(slice, positions);
    {
      const ScopedSpan span(spans, "geometry.reconstruct");
      core::reconstruct_surface(samples, kRegion,
                                core::CornerPolicy::kFieldValue, &slice);
    }
    {
      const ScopedSpan span(spans, "graph.components");
      graph::GeometricGraph(positions, kRc).component_count();
    }
  }

  trace::GreenOrbsField env_;
  core::DeltaMetric track_metric_;
  core::DeltaMetric check_metric_;
  core::DeltaMetric probe_metric_;
  std::unique_ptr<core::FraPlanner> planner_;
  std::unique_ptr<core::FraPlanner> planner_untracked_;
  core::PlanRequest request_;
  num::Rng times_rng_;
  num::Rng check_rng_;
  std::vector<double> times_;
  std::set<double> used_;
  core::FraResult last_;
  std::size_t checked_ = 0;
  std::size_t failed_ = 0;
  std::size_t oracle_checks_ = 0;
  double delta_sum_ = 0.0;
  double frac_sum_ = 0.0;
  struct {
    std::size_t events = 0;
    std::size_t points = 0;
    std::size_t relays = 0;
    std::size_t stale = 0;
  } traced_;
};

}  // namespace

std::unique_ptr<Workload> setup_osd_plan(const Options& options) {
  return std::make_unique<OsdPlan>(options);
}

}  // namespace perfbench
