// ostd_swarm: mobile OSTD control with δ(t), the paper's Fig. 10 pipeline
// at nine times its node density.
//
// Set-up places 900 nodes on the GridPlanner lattice of the 100 x 100
// region and starts CMA (paper LCM, Rc = 10.0001, Rs = 5) on the live
// GreenOrbs field at 10:00, with a GilbertElliottLink (default parameters,
// seed drawn from the workload seed) as the channel.  One op is one slot:
// CmaSimulation::step() followed by CmaDeltaTracker::update().  The first
// kWarmupSlots slots, whose tracker updates move every node, are set-up.
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "core/cma.hpp"
#include "core/cma_delta.hpp"
#include "core/curvature.hpp"
#include "core/delta.hpp"
#include "core/planner.hpp"
#include "harness.hpp"
#include "net/link_model.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "trace/greenorbs.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 900;
constexpr double kRc = 10.0001;  // Keeps the pitch-10 paper grid connected.
constexpr double kRs = 5.0;
constexpr std::size_t kResolution = 100;
constexpr std::size_t kWarmupSlots = 4;
/// Slots whose tracker value is compared against a fresh sweep.
constexpr std::size_t kOracleEvery = 16;
/// Slots delta_mean and component_frac_mean average over.
constexpr std::size_t kFixedSlots = 120;

constexpr const char* kDropReasons[] = {"dead_sender", "dead_receiver",
                                        "out_of_range", "link_loss_draw",
                                        "ttl_expired"};

std::uint64_t counter_value(const std::string& name) {
  return obs::registry().counter(name).value();
}

class OstdSwarm final : public Workload {
 public:
  explicit OstdSwarm(const Options& o)
      : env_(trace::GreenOrbsConfig{}),
        metric_(kRegion, kResolution),
        check_metric_(kRegion, kResolution),
        probe_metric_(kRegion, kResolution) {
    num::Rng rng(o.seed);
    core::CmaConfig cfg;
    cfg.rc = kRc;
    cfg.rs = kRs;
    cfg.lcm = core::LcmMode::kPaper;
    cfg.seed = rng.fork(1).next_u64();
    sim_ = std::make_unique<core::CmaSimulation>(
        env_, kRegion, core::GridPlanner::make_grid(kRegion, kNodes).positions,
        cfg, trace::minutes(10, 0));
    sim_->set_link_model(std::make_unique<net::GilbertElliottLink>(
        kRc, net::GilbertElliottLink::Params{}, rng.fork(2).next_u64()));
    tracker_ = std::make_unique<core::CmaDeltaTracker>(*sim_, metric_);
    for (std::size_t s = 0; s < kWarmupSlots; ++s) {
      sim_->step();
      tracker_->update(*sim_);
    }
  }

  double tail_percentile() const override { return 95.0; }
  std::size_t fixed_ops() const override { return kFixedSlots; }

  void op(std::size_t, SpanLog* spans) override {
    {
      const ScopedSpan span(spans, "core.cma.step");
      sim_->step();
    }
    const ScopedSpan span(spans, "core.delta_incremental.update");
    last_delta_ = tracker_->update(*sim_);
  }

  void after_op(std::size_t i, SpanLog* spans) override {
    bool ok = std::isfinite(last_delta_) && last_delta_ >= 0.0;
    for (const geo::Vec2 p : sim_->positions()) {
      ok = ok && kRegion.contains(p.x, p.y);
    }
    const field::FieldSlice slice(env_, sim_->time());
    if (i % kOracleEvery == 0) {
      ++oracle_checks_;
      const double fresh =
          check_metric_.delta(slice, tracker_->triangulation());
      ok = ok && std::bit_cast<std::uint64_t>(fresh) ==
                     std::bit_cast<std::uint64_t>(tracker_->value());
    }
    ++checked_;
    if (!ok) ++failed_;
    if (i < kFixedSlots) {
      delta_sum_ += last_delta_;
      frac_sum_ += sim_->largest_component_fraction();
    }
    if (spans != nullptr) probe(slice, spans);
  }

  void begin_traced() override {
    points0_ = tracker_->delta_stats().points_reevaluated;
    broadcasts0_ = sim_->total_broadcasts();
    chases_ = 0;
    moved0_ = sim_->total_distance_traveled();
  }

  Outcome finish(const SpanLog* spans, std::size_t traced_ops) override {
    Outcome out;
    out.checked_ops = checked_;
    out.failed_ops = failed_;
    out.delta_mean = delta_sum_ / static_cast<double>(kFixedSlots);
    out.component_frac_mean = frac_sum_ / static_cast<double>(kFixedSlots);
    out.info["oracle_checks"] = std::to_string(oracle_checks_);
    if (spans != nullptr && traced_ops > 0) {
      const double n = static_cast<double>(traced_ops);
      out.layers["core.cma.step_ms"] = spans->mean_ms("core.cma.step");
      out.layers["core.delta_incremental.update_ms"] =
          spans->mean_ms("core.delta_incremental.update");
      out.layers["core.curvature.sense_ms"] =
          spans->mean_ms("core.curvature.sense");
      out.layers["field.lattice_ms"] = spans->mean_ms("field.lattice");
      out.layers["core.delta_incremental.points_per_slot"] =
          static_cast<double>(tracker_->delta_stats().points_reevaluated -
                              points0_) / n;
      out.layers["net.broadcasts_per_slot"] =
          static_cast<double>(sim_->total_broadcasts() - broadcasts0_) / n;
      const double attempts =
          static_cast<double>(counter_value("net.bus.transmit_attempts"));
      out.layers["net.delivery_ratio"] =
          attempts == 0.0
              ? 0.0
              : static_cast<double>(counter_value("net.bus.deliveries")) /
                    attempts;
      for (const char* reason : kDropReasons) {
        out.layers[std::string("net.bus.drop.") + reason + "_per_slot"] =
            static_cast<double>(
                counter_value(std::string("net.bus.drop.") + reason)) / n;
      }
      out.layers["core.cma.chases_per_slot"] =
          static_cast<double>(chases_) / n;
      out.layers["core.cma.moved_m_per_slot"] =
          (sim_->total_distance_traveled() - moved0_) / n;
    }
    return out;
  }

 private:
  /// Per-layer probes of the traced run, on the slot's own inputs.
  void probe(const field::FieldSlice& slice, SpanLog* spans) {
    chases_ += sim_->last_chase_count();
    const std::vector<geo::Vec2> alive = sim_->alive_positions();
    {
      const ScopedSpan span(spans, "core.curvature.sense");
      for (const geo::Vec2 p : alive) {
        const core::SensingPatch patch(slice, p, kRs);
        (void)patch;
      }
    }
    probe_metric_.clear_reference_cache();
    {
      const ScopedSpan span(spans, "field.lattice");
      probe_metric_.reference_lattice(slice);
    }
  }

  trace::GreenOrbsField env_;
  core::DeltaMetric metric_;
  core::DeltaMetric check_metric_;
  core::DeltaMetric probe_metric_;
  std::unique_ptr<core::CmaSimulation> sim_;
  std::unique_ptr<core::CmaDeltaTracker> tracker_;
  double last_delta_ = 0.0;
  std::size_t checked_ = 0;
  std::size_t failed_ = 0;
  std::size_t oracle_checks_ = 0;
  double delta_sum_ = 0.0;
  double frac_sum_ = 0.0;
  std::size_t points0_ = 0;
  std::size_t broadcasts0_ = 0;
  std::size_t chases_ = 0;
  double moved0_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> setup_ostd_swarm(const Options& options) {
  return std::make_unique<OstdSwarm>(options);
}

}  // namespace perfbench
