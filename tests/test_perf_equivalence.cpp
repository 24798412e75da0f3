// Bit-identity tests for the fast paths introduced by the perf PRs:
//
//  * FRA's indexed decrease-key heap engine vs the full lattice scan,
//    across every deterministic SelectionMeasure, both foresight modes,
//    and k from 10 to 2000 on fig5/fig6-style configs — including the
//    parked-entry affordability protocol and the storm-compaction
//    (flat-scan / Floyd-rebuild) transitions;
//  * the grid-pruned MessageBus vs the all-pairs oracle bus
//    (tests/oracle), for all three link models, under moves, deaths and
//    revivals, at 1-4 worker threads;
//  * the per-model no-draw pruning contract the grid path relies on;
//  * a hard-coded golden for SelectionMeasure::kRandom pinning the
//    incremental free-list to the draw schedule of the original
//    rebuild-the-pool implementation (seed stability).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fra.hpp"
#include "field/analytic_fields.hpp"
#include "net/link_model.hpp"
#include "net/message_bus.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "oracle/all_pairs_bus.hpp"
#include "parallel/thread_pool.hpp"

namespace cps {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};
constexpr double kRc = 10.0;

// --- FRA: heap engine vs scan engine -------------------------------------

/// A fig5/fig6-like reference surface: smooth trend plus sharp plateaus,
/// so local error, curvature, and their product all rank candidates
/// non-trivially.
field::AnalyticField reference_surface() {
  return field::AnalyticField([](double x, double y) {
    return 10.0 + 0.05 * x * y / 100.0 + 3.0 * (x > 40 && x < 60) +
           2.0 * (y > 20 && y < 50);
  });
}

core::FraResult plan_with_engine(core::SelectionEngine engine,
                                 core::SelectionMeasure measure,
                                 bool foresight, std::size_t k) {
  core::FraConfig cfg;  // error_grid = 100, the paper's lattice.
  cfg.selection_engine = engine;
  cfg.measure = measure;
  cfg.foresight = foresight;
  const auto f = reference_surface();
  return core::FraPlanner(cfg).plan_detailed(
      f, core::PlanRequest{kRegion, k, kRc});
}

void expect_identical(const core::FraResult& a, const core::FraResult& b) {
  ASSERT_EQ(a.steps.size(), b.steps.size());
  EXPECT_EQ(a.relay_count, b.relay_count);
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    // Exact equality: the engines must make the same choice, not merely
    // equally good ones.
    EXPECT_EQ(a.steps[i].position.x, b.steps[i].position.x) << "step " << i;
    EXPECT_EQ(a.steps[i].position.y, b.steps[i].position.y) << "step " << i;
    EXPECT_EQ(a.steps[i].score, b.steps[i].score) << "step " << i;
    EXPECT_EQ(a.steps[i].relay, b.steps[i].relay) << "step " << i;
  }
  ASSERT_EQ(a.deployment.positions.size(), b.deployment.positions.size());
  for (std::size_t i = 0; i < a.deployment.positions.size(); ++i) {
    EXPECT_EQ(a.deployment.positions[i].x, b.deployment.positions[i].x);
    EXPECT_EQ(a.deployment.positions[i].y, b.deployment.positions[i].y);
  }
}

TEST(FraEngineEquivalence, HeapMatchesScanAcrossMeasuresAndForesight) {
  using core::SelectionMeasure;
  for (const SelectionMeasure measure :
       {SelectionMeasure::kLocalError, SelectionMeasure::kCurvature,
        SelectionMeasure::kProduct}) {
    for (const bool foresight : {true, false}) {
      for (const std::size_t k : {std::size_t{30}, std::size_t{100}}) {
        SCOPED_TRACE("measure=" + std::to_string(static_cast<int>(measure)) +
                     " foresight=" + std::to_string(foresight) +
                     " k=" + std::to_string(k));
        expect_identical(plan_with_engine(core::SelectionEngine::kHeap,
                                          measure, foresight, k),
                         plan_with_engine(core::SelectionEngine::kScan,
                                          measure, foresight, k));
      }
    }
  }
}

TEST(FraEngineEquivalence, HeapMatchesScanAcrossKRange) {
  // The k sweep the indexed engine has to win everywhere: small plans
  // where the lazy-deletion heap used to lose to the scan, the paper's
  // canonical k = 100, and the large-k regime the heap was built for.
  // Identity is the acceptance bar; speed is gated by bench_perf.
  for (const std::size_t k :
       {std::size_t{10}, std::size_t{100}, std::size_t{500},
        std::size_t{2000}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_identical(
        plan_with_engine(core::SelectionEngine::kHeap,
                         core::SelectionMeasure::kProduct, true, k),
        plan_with_engine(core::SelectionEngine::kScan,
                         core::SelectionMeasure::kProduct, true, k));
  }
}

TEST(FraEngineEquivalence, ParkedEntriesAreRestoredAcrossIterations) {
  // A tight relay budget (rc = 6, k = 30, foresight on) makes the heap's
  // top pops unaffordable in some iterations: those entries are parked
  // and must be re-inserted after the selection, or they would vanish
  // from later iterations where the budget would have admitted them.
  core::FraConfig cfg;
  cfg.foresight = true;
  const auto f = reference_surface();
  const core::PlanRequest request{kRegion, 30, 6.0};

  obs::set_enabled(true);
  obs::registry().reset();
  cfg.selection_engine = core::SelectionEngine::kHeap;
  const auto heap = core::FraPlanner(cfg).plan_detailed(f, request);
  const auto parked =
      obs::registry().counter("core.fra.heap_parked").value();
  cfg.selection_engine = core::SelectionEngine::kScan;
  const auto scan = core::FraPlanner(cfg).plan_detailed(f, request);

  // The config must actually exercise the parking protocol (the counter
  // exists only where instrumentation is compiled in), and the restore
  // must keep the heap bit-identical to the affordability-aware scan
  // oracle.
#if defined(CPS_OBS_ENABLED)
  EXPECT_GT(parked, 0u);
#else
  (void)parked;
#endif
  expect_identical(heap, scan);
}

TEST(FraEngineEquivalence, StormCompactionSurvivesRebucketFlood) {
  // Early k = 100 iterations on a coarse triangulation rebucket most of
  // the lattice per insert: displacement crosses the storm threshold, the
  // heap drops to flat argmax scans, and once inserts displace little it
  // compacts back via a Floyd rebuild.  Both transitions must happen and
  // neither may perturb a single selection.
  core::FraConfig cfg;
  cfg.foresight = true;
  const auto f = reference_surface();
  const core::PlanRequest request{kRegion, 100, kRc};

  obs::set_enabled(true);
  obs::registry().reset();
  cfg.selection_engine = core::SelectionEngine::kHeap;
  const auto heap = core::FraPlanner(cfg).plan_detailed(f, request);
  const auto flat_scans =
      obs::registry().counter("core.fra.heap_flat_scans").value();
  const auto rebuilds =
      obs::registry().counter("core.fra.heap_rebuilds").value();
  const auto stale =
      obs::registry().counter("core.fra.heap_stale_pops").value();
  cfg.selection_engine = core::SelectionEngine::kScan;
  const auto scan = core::FraPlanner(cfg).plan_detailed(f, request);

#if defined(CPS_OBS_ENABLED)
  EXPECT_GT(flat_scans, 0u);   // Storm mode engaged...
  EXPECT_GT(rebuilds, 0u);     // ...and compacted back out of it.
  EXPECT_EQ(stale, 0u);        // Indexed heap: stale pops are impossible.
#else
  (void)flat_scans;
  (void)rebuilds;
  (void)stale;
#endif
  expect_identical(heap, scan);
}

TEST(FraEngineEquivalence, RandomMeasureIgnoresEngine) {
  // kRandom has its own incremental free-list; the engine knob must not
  // perturb its draw schedule.
  expect_identical(plan_with_engine(core::SelectionEngine::kHeap,
                                    core::SelectionMeasure::kRandom, true, 40),
                   plan_with_engine(core::SelectionEngine::kScan,
                                    core::SelectionMeasure::kRandom, true, 40));
}

// --- FRA: kRandom golden (seed stability across the free-list rewrite) ---

struct GoldenStep {
  double x, y;
  int relay;
};

core::FraResult plan_random_golden(bool foresight) {
  core::FraConfig cfg;
  cfg.error_grid = 40;
  cfg.measure = core::SelectionMeasure::kRandom;
  cfg.foresight = foresight;
  cfg.seed = 2026;
  const auto f = reference_surface();
  return core::FraPlanner(cfg).plan_detailed(
      f, core::PlanRequest{kRegion, 25, kRc});
}

void expect_matches_golden(const core::FraResult& result,
                           const std::vector<GoldenStep>& golden) {
  ASSERT_EQ(result.steps.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(result.steps[i].position.x, golden[i].x) << "step " << i;
    EXPECT_EQ(result.steps[i].position.y, golden[i].y) << "step " << i;
    EXPECT_EQ(result.steps[i].relay, golden[i].relay != 0) << "step " << i;
  }
}

// Captured from the pre-heap implementation (rebuild-the-unused-pool every
// iteration) at error_grid = 40, seed = 2026, k = 25: the incremental
// free-list must reproduce this draw schedule exactly.
TEST(FraRandomGolden, ForesightOnSequenceIsStable) {
  const std::vector<GoldenStep> golden = {
      {100.00000000000001, 33.333333333333336, 0},
      {76.923076923076934, 94.871794871794876, 0},
      {0, 10.256410256410257, 0},
      {46.15384615384616, 23.07692307692308, 0},
      {89.743589743589752, 92.307692307692321, 0},
      {51.282051282051285, 92.307692307692321, 0},
      {38.461538461538467, 23.07692307692308, 0},
      {53.846153846153854, 87.179487179487182, 0},
      {91.025641025641036, 31.623931623931625, 1},
      {82.051282051282072, 29.914529914529918, 1},
      {73.076923076923094, 28.205128205128208, 1},
      {64.102564102564116, 26.495726495726501, 1},
      {55.128205128205131, 24.786324786324791, 1},
      {30.769230769230774, 20.512820512820515, 1},
      {23.07692307692308, 17.948717948717949, 1},
      {15.384615384615387, 15.384615384615387, 1},
      {7.6923076923076934, 12.820512820512821, 1},
      {98.290598290598297, 43.162393162393165, 1},
      {96.581196581196593, 52.991452991452995, 1},
      {94.87179487179489, 62.820512820512832, 1},
      {93.162393162393172, 72.649572649572661, 1},
      {91.452991452991455, 82.478632478632491, 1},
      {83.333333333333343, 93.589743589743591, 1},
      {69.230769230769241, 92.307692307692307, 1},
      {61.538461538461547, 89.743589743589752, 1},
  };
  const auto result = plan_random_golden(/*foresight=*/true);
  EXPECT_EQ(result.relay_count, 17u);
  expect_matches_golden(result, golden);
}

TEST(FraRandomGolden, ForesightOffSequenceIsStable) {
  const std::vector<GoldenStep> golden = {
      {100.00000000000001, 33.333333333333336, 0},
      {76.923076923076934, 94.871794871794876, 0},
      {0, 10.256410256410257, 0},
      {23.07692307692308, 56.410256410256416, 0},
      {79.487179487179489, 56.410256410256416, 0},
      {66.666666666666671, 61.538461538461547, 0},
      {100.00000000000001, 84.615384615384627, 0},
      {53.846153846153854, 61.538461538461547, 0},
      {97.435897435897445, 10.256410256410257, 0},
      {84.615384615384627, 84.615384615384627, 0},
      {10.256410256410257, 0, 0},
      {10.256410256410257, 5.1282051282051286, 0},
      {7.6923076923076934, 76.923076923076934, 0},
      {100.00000000000001, 17.948717948717949, 0},
      {48.717948717948723, 61.538461538461547, 0},
      {56.410256410256416, 61.538461538461547, 0},
      {7.6923076923076934, 58.974358974358978, 0},
      {43.589743589743591, 87.179487179487182, 0},
      {66.666666666666671, 71.794871794871796, 0},
      {71.794871794871796, 92.307692307692321, 0},
      {100.00000000000001, 61.538461538461547, 0},
      {71.794871794871796, 87.179487179487182, 0},
      {2.5641025641025643, 5.1282051282051286, 0},
      {89.743589743589752, 41.025641025641029, 0},
      {46.15384615384616, 43.589743589743591, 0},
  };
  const auto result = plan_random_golden(/*foresight=*/false);
  EXPECT_EQ(result.relay_count, 0u);
  expect_matches_golden(result, golden);
}

// --- MessageBus: grid-pruned vs all-pairs delivery ------------------------

std::unique_ptr<net::LinkModel> make_link(const std::string& model,
                                          double rc, std::uint64_t seed) {
  if (model == "disk") return std::make_unique<net::DiskLink>(rc, 0.3, seed);
  if (model == "distloss")
    return std::make_unique<net::DistanceLossLink>(rc, 0.8, 2.0, seed);
  return std::make_unique<net::GilbertElliottLink>(
      rc, net::GilbertElliottLink::Params{}, seed);
}

#if defined(CPS_OBS_ENABLED)
std::uint64_t cval(const char* name) {
  return obs::registry().counter(name).value();
}
#endif

/// Drives the grid-pruned bus and the all-pairs oracle (tests/oracle)
/// through the same seeded slots — moves, deaths and revivals between
/// slots, broadcasts from dead nodes, deaths with messages in flight —
/// and requires identical inboxes (order included) every slot, identical
/// neighbour sets, and identical per-reason drop tallies.  Inbox equality
/// slot after slot on lossy links is also the RNG-stream check: one draw
/// more or fewer on either side shifts every later loss.  The final slot
/// packs every node into one cell, living, so each link draws.
void expect_bus_matches_oracle(const std::string& model, std::uint64_t seed) {
  constexpr std::size_t kNodes = 60;
  constexpr std::size_t kSlots = 30;
  net::MessageBus<int> bus(kNodes, make_link(model, kRc, seed));
  oracle::AllPairsBus<int> ref(kNodes, make_link(model, kRc, seed));
  num::Rng rng(seed);
  std::vector<geo::Vec2> pos(kNodes);
  std::vector<char> alive(kNodes, 1);
  const auto place = [&](std::size_t i, geo::Vec2 p) {
    pos[i] = p;
    bus.set_position(i, p);
    ref.set_position(i, p);
  };
  const auto set_alive = [&](std::size_t i, bool a) {
    alive[i] = a ? 1 : 0;
    bus.set_alive(i, a);
    ref.set_alive(i, a);
  };
  // A 60 x 60 patch of the region: about 8 in-range neighbours per node.
  for (std::size_t i = 0; i < kNodes; ++i) {
    place(i, {rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)});
  }
  obs::set_enabled(true);
  obs::registry().reset();
  for (std::size_t slot = 0; slot <= kSlots; ++slot) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    const bool dense = slot == kSlots;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (dense) {
        place(i, {50.0 + rng.uniform(0.0, 6.0), 50.0 + rng.uniform(0.0, 6.0)});
        set_alive(i, true);
        continue;
      }
      if (rng.uniform() < 0.06) set_alive(i, !alive[i]);
      if (rng.uniform() < 0.3) {
        place(i, {std::clamp(pos[i].x + rng.uniform(-6.0, 6.0), 0.0, 100.0),
                  std::clamp(pos[i].y + rng.uniform(-6.0, 6.0), 0.0, 100.0)});
      }
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      const int message = static_cast<int>(slot * 1000 + i);
      bus.broadcast(i, message);
      ref.broadcast(i, message);
    }
    // Deaths with messages in flight.
    for (std::size_t i = 0; i < kNodes && !dense; ++i) {
      if (alive[i] && rng.uniform() < 0.03) set_alive(i, false);
    }
    bus.step();
    ref.step();
    for (net::NodeId i = 0; i < kNodes; ++i) {
      const auto& got = bus.inbox(i);
      const auto& want = ref.inbox(i);
      ASSERT_EQ(got.size(), want.size()) << "node " << i;
      for (std::size_t m = 0; m < got.size(); ++m) {
        ASSERT_EQ(got[m].from, want[m].from) << "node " << i << " #" << m;
        ASSERT_EQ(got[m].message, want[m].message) << "node " << i;
      }
      ASSERT_EQ(bus.neighbors_of(i), ref.neighbors_of(i)) << "node " << i;
    }
  }
#if defined(CPS_OBS_ENABLED)
  const oracle::BusDrops& want = ref.drops();
  EXPECT_GT(want.dead_sender, 0u);
  EXPECT_GT(want.dead_receiver, 0u);
  EXPECT_GT(want.out_of_range, 0u);
  EXPECT_GT(want.link_loss_draw, 0u);
  EXPECT_EQ(cval("net.bus.drop.dead_sender"), want.dead_sender);
  EXPECT_EQ(cval("net.bus.drop.dead_receiver"), want.dead_receiver);
  EXPECT_EQ(cval("net.bus.drop.out_of_range"), want.out_of_range);
  EXPECT_EQ(cval("net.bus.drop.link_loss_draw"), want.link_loss_draw);
#endif
  obs::set_enabled(false);
}

TEST(BusDeliveryEquivalence, GridMatchesAllPairsOracleUnderChurnAllModels) {
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    par::set_thread_count(threads);
    for (const std::string model : {"disk", "distloss", "gilbert"}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " model=" + model);
      expect_bus_matches_oracle(model, /*seed=*/17 + threads);
    }
  }
  par::set_thread_count(1);
}

// --- LinkModel: the no-draw pruning contract ------------------------------

TEST(LinkModelContract, MaxRangeCoversRadius) {
  for (const std::string model : {"disk", "distloss", "gilbert"}) {
    const auto link = make_link(model, kRc, 1);
    EXPECT_GE(link->max_range(), link->radius()) << model;
  }
}

// Two equal-seeded copies of each model run the same in-range attempt
// sequence, but one is additionally peppered with out-of-range attempts.
// If transmit() consumed randomness (or advanced per-link state) on an
// out-of-range pair, the in-range outcome streams would diverge — and the
// grid-pruned bus would not be bit-identical to the all-pairs probe.
TEST(LinkModelContract, OutOfRangeAttemptsConsumeNoRandomness) {
  for (const std::string model : {"disk", "distloss", "gilbert"}) {
    SCOPED_TRACE(model);
    const auto pruned = make_link(model, kRc, /*seed=*/42);
    const auto peppered = make_link(model, kRc, /*seed=*/42);
    const geo::Vec2 origin{0.0, 0.0};
    const geo::Vec2 far{kRc * 3.0, 0.0};
    for (int i = 0; i < 200; ++i) {
      // Cycle through in-range distances and several directed links so
      // per-link state (Gilbert-Elliott) is exercised too.
      const geo::Vec2 to{0.5 + (i % 19) * 0.5, 0.0};
      const net::NodeId a = i % 3;
      const net::NodeId b = 3 + i % 4;
      EXPECT_FALSE(peppered->transmit(a, b, origin, far)) << "attempt " << i;
      EXPECT_EQ(pruned->transmit(a, b, origin, to),
                peppered->transmit(a, b, origin, to))
          << "attempt " << i;
    }
  }
}

}  // namespace
}  // namespace cps
