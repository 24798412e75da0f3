// Sharded-vs-unsharded equivalence for the CMA slot loop
// (core/cma_sharding.hpp + CmaConfig::sharding).
//
// The tile decomposition promises *bit-identity*: positions, learned
// neighbour tables, LCM chase counts, distance accumulators, and the
// drop-reason taxonomy must match the seed path exactly — per slot, at
// every thread count, for every tile/ghost geometry, under every link
// model, and across faults and tile migrations.  These tests fuzz that
// promise; any divergence is a bug in the matching or the fold order,
// never an acceptable approximation.
#include "core/cma.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cma_sharding.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"
#include "numerics/rng.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

field::StaticTimeField static_env() {
  return field::StaticTimeField(std::make_shared<field::GaussianMixtureField>(
      0.5, std::vector<field::GaussianBump>{{{30.0, 30.0}, 3.0, 8.0},
                                            {{70.0, 60.0}, 2.5, 10.0}}));
}

/// Random but reproducible scatter over the whole region, so nodes span
/// many tiles and several sit right on tile boundaries.
std::vector<geo::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  num::Rng rng(seed);
  std::vector<geo::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(kRegion.x0, kRegion.x1),
                   rng.uniform(kRegion.y0, kRegion.y1)});
  }
  return pts;
}

CmaConfig base_config() {
  CmaConfig cfg;
  cfg.sample_spacing = 2.0;  // Coarse lattice: keep the fuzz sweeps fast.
  cfg.lcm = LcmMode::kPaper;
  return cfg;
}

enum class Link { kDiskLossless, kDiskLossy, kDistance, kGilbert };

std::unique_ptr<net::LinkModel> make_link(Link kind, double rc) {
  switch (kind) {
    case Link::kDiskLossless:
      return std::make_unique<net::DiskLink>(rc, 0.0, 17);
    case Link::kDiskLossy:
      return std::make_unique<net::DiskLink>(rc, 0.3, 17);
    case Link::kDistance:
      return std::make_unique<net::DistanceLossLink>(rc, 0.5, 2.0, 17);
    case Link::kGilbert:
      return std::make_unique<net::GilbertElliottLink>(
          rc, net::GilbertElliottLink::Params{}, 17);
  }
  return nullptr;
}

/// Drop-taxonomy + delivery counters that must be identical between the
/// sharded and unsharded runs (transmit_attempts is deliberately absent:
/// it is a cost metric and shrinks under matching).
const char* const kEquivalentCounters[] = {
    "net.bus.messages_sent",       "net.bus.deliveries",
    "net.bus.delivery_failures",   "net.bus.drops_total",
    "net.bus.drop.dead_sender",    "net.bus.drop.dead_receiver",
    "net.bus.drop.out_of_range",   "net.bus.drop.link_loss_draw",
    "net.bus.drop.ttl_expired",    "net.bus.beacon_rx",
};

std::map<std::string, std::uint64_t> counter_snapshot() {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kEquivalentCounters) {
    out[name] = obs::counter(name).value();
  }
  return out;
}

struct RunResult {
  std::vector<std::vector<geo::Vec2>> positions_per_slot;
  std::vector<std::size_t> chases_per_slot;
  std::vector<double> max_move_per_slot;
  std::vector<std::vector<std::size_t>> known_per_slot;
  double total_distance = 0.0;
  std::size_t broadcasts = 0;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t transmit_attempts = 0;
};

struct RunSpec {
  std::size_t nodes = 40;
  std::size_t slots = 12;
  std::uint64_t seed = 5;
  Link link = Link::kDiskLossy;
  LcmMode lcm = LcmMode::kPaper;
  std::size_t ttl = 1;
  double tile_size = 0.0;
  double ghost_width = 0.0;
  bool faults = false;
  std::size_t threads = 1;
};

RunResult run_cma(const RunSpec& spec, ShardingMode mode) {
  par::set_thread_count(spec.threads);
  obs::set_enabled(true);
  obs::registry().reset();
  const auto env = static_env();
  CmaConfig cfg = base_config();
  cfg.lcm = spec.lcm;
  cfg.neighbor_ttl = spec.ttl;
  cfg.sharding = mode;
  cfg.tile_size = spec.tile_size;
  cfg.ghost_width = spec.ghost_width;
  CmaSimulation sim(env, kRegion, scatter(spec.nodes, spec.seed), cfg);
  sim.set_link_model(make_link(spec.link, cfg.rc));
  if (spec.faults) {
    net::FaultSchedule schedule;
    schedule.add_death(1, 2);
    schedule.add_death(3, spec.nodes / 2);
    schedule.add_death(5, spec.nodes - 1);
    schedule.add_revival(7, 2);
    schedule.add_revival(9, spec.nodes / 2);
    sim.set_fault_schedule(std::move(schedule));
  }
  RunResult result;
  for (std::size_t s = 0; s < spec.slots; ++s) {
    sim.step();
    result.positions_per_slot.push_back(sim.positions());
    result.chases_per_slot.push_back(sim.last_chase_count());
    result.max_move_per_slot.push_back(sim.last_max_displacement());
    std::vector<std::size_t> known(spec.nodes);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      known[i] = sim.known_neighbor_count(i);
    }
    result.known_per_slot.push_back(std::move(known));
  }
  result.total_distance = sim.total_distance_traveled();
  result.broadcasts = sim.total_broadcasts();
  result.counters = counter_snapshot();
  result.transmit_attempts = obs::counter("net.bus.transmit_attempts").value();
  obs::set_enabled(false);
  par::set_thread_count(0);
  return result;
}

/// Bitwise comparison of a sharded run against the unsharded oracle with
/// the same spec (the oracle always runs at one thread: the seed path).
void expect_equivalent(const RunSpec& spec) {
  RunSpec oracle_spec = spec;
  oracle_spec.threads = 1;
  const RunResult oracle = run_cma(oracle_spec, ShardingMode::kOff);
  const RunResult sharded = run_cma(spec, ShardingMode::kTiles);
  ASSERT_EQ(oracle.positions_per_slot.size(),
            sharded.positions_per_slot.size());
  for (std::size_t s = 0; s < oracle.positions_per_slot.size(); ++s) {
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      EXPECT_EQ(oracle.positions_per_slot[s][i].x,
                sharded.positions_per_slot[s][i].x)
          << "slot " << s << " node " << i;
      EXPECT_EQ(oracle.positions_per_slot[s][i].y,
                sharded.positions_per_slot[s][i].y)
          << "slot " << s << " node " << i;
    }
    EXPECT_EQ(oracle.chases_per_slot[s], sharded.chases_per_slot[s])
        << "slot " << s;
    EXPECT_EQ(oracle.max_move_per_slot[s], sharded.max_move_per_slot[s])
        << "slot " << s;
    EXPECT_EQ(oracle.known_per_slot[s], sharded.known_per_slot[s])
        << "slot " << s;
  }
  EXPECT_EQ(oracle.total_distance, sharded.total_distance);
  EXPECT_EQ(oracle.broadcasts, sharded.broadcasts);
  EXPECT_EQ(oracle.counters, sharded.counters);
  // Matching probes only in-range pairs; the grid oracle probes whole
  // 3x3 cell neighbourhoods.  Equal would mean the matcher probed junk.
  EXPECT_LE(sharded.transmit_attempts, oracle.transmit_attempts);
}

TEST(CmaSharded, ConfigValidatesGhostWidth) {
  const auto env = static_env();
  CmaConfig cfg = base_config();
  cfg.sharding = ShardingMode::kTiles;
  cfg.ghost_width = 0.5 * cfg.rc;  // Ring narrower than the radio disk.
  EXPECT_THROW(CmaSimulation(env, kRegion, scatter(10, 3), cfg),
               std::invalid_argument);
}

TEST(CmaSharded, ShardGridValidatesParameters) {
  EXPECT_THROW(ShardGrid(kRegion, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(ShardGrid(kRegion, 20.0, -1.0), std::invalid_argument);
}

TEST(CmaSharded, ShardGridRejectsRadiusBeyondGhost) {
  ShardGrid grid(kRegion, 20.0, 5.0);
  const std::vector<geo::Vec2> pts = scatter(8, 4);
  const std::vector<char> alive(pts.size(), 1);
  net::DiskLink wide(8.0, 0.0, 1);  // radius 8 > ghost 5
  EXPECT_THROW(grid.prepare(pts, alive, wide), std::logic_error);
}

TEST(CmaSharded, DefaultTilingMatchesOracleSerially) {
  expect_equivalent(RunSpec{});
}

TEST(CmaSharded, TileSizeSweep) {
  for (const double tile : {12.0, 25.0, 50.0, 500.0}) {
    RunSpec spec;
    spec.tile_size = tile;
    spec.seed = 11 + static_cast<std::uint64_t>(tile);
    expect_equivalent(spec);
  }
}

TEST(CmaSharded, GhostWidthSweep) {
  for (const double ghost : {10.0, 14.0, 30.0}) {
    RunSpec spec;
    spec.ghost_width = ghost;
    spec.seed = 23 + static_cast<std::uint64_t>(ghost);
    expect_equivalent(spec);
  }
}

TEST(CmaSharded, ThreadCountSweep) {
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    RunSpec spec;
    spec.threads = threads;
    spec.seed = 31 + threads;
    expect_equivalent(spec);
  }
}

TEST(CmaSharded, LinkModelSweep) {
  for (const Link link : {Link::kDiskLossless, Link::kDiskLossy,
                          Link::kDistance, Link::kGilbert}) {
    RunSpec spec;
    spec.link = link;
    spec.seed = 41 + static_cast<std::uint64_t>(link);
    spec.threads = 2;
    expect_equivalent(spec);
  }
}

TEST(CmaSharded, StrictLcmAndTtlSweep) {
  for (const std::size_t ttl : {std::size_t{1}, std::size_t{3}}) {
    RunSpec spec;
    spec.lcm = LcmMode::kStrict;
    spec.ttl = ttl;
    spec.seed = 53 + ttl;
    spec.threads = 4;
    expect_equivalent(spec);
  }
}

TEST(CmaSharded, FaultsWithBoundaryDeaths) {
  for (const std::size_t threads : {1u, 4u}) {
    RunSpec spec;
    spec.faults = true;
    spec.threads = threads;
    spec.slots = 14;
    spec.seed = 61 + threads;
    expect_equivalent(spec);
  }
}

TEST(CmaSharded, RandomizedFuzz) {
  num::Rng rng(97);
  for (int round = 0; round < 6; ++round) {
    RunSpec spec;
    spec.nodes = 20 + static_cast<std::size_t>(rng.uniform(0.0, 40.0));
    spec.slots = 6 + static_cast<std::size_t>(rng.uniform(0.0, 8.0));
    spec.seed = static_cast<std::uint64_t>(rng.uniform(1.0, 1e6));
    spec.link = static_cast<Link>(
        static_cast<int>(rng.uniform(0.0, 3.999)));
    spec.lcm = rng.bernoulli(0.5) ? LcmMode::kPaper : LcmMode::kStrict;
    spec.ttl = rng.bernoulli(0.5) ? 1 : 2;
    spec.tile_size = rng.bernoulli(0.5) ? 0.0 : rng.uniform(10.0, 60.0);
    spec.threads = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.999));
    spec.faults = rng.bernoulli(0.5);
    expect_equivalent(spec);
  }
}

TEST(CmaSharded, NodesMigrateAcrossTilesMidRun) {
  // A long, force-driven run over the default tiling must show tile
  // reassignments; migration is just positional re-ownership, so the
  // equivalence sweep above already covers its correctness — here we pin
  // that it actually happens (the test would be vacuous otherwise).
  par::set_thread_count(2);
  obs::set_enabled(true);
  obs::registry().reset();
  const auto env = static_env();
  CmaConfig cfg = base_config();
  cfg.sharding = ShardingMode::kTiles;
  cfg.tile_size = 12.0;  // Small tiles: short hop to the next one.
  CmaSimulation sim(env, kRegion, scatter(60, 71), cfg);
  sim.run(30);
#if defined(CPS_OBS_ENABLED)
  EXPECT_GT(obs::counter("core.cma.shard.migrations").value(), 0u);
#endif
  ASSERT_NE(sim.shard(), nullptr);
  EXPECT_GT(sim.shard()->tile_count(), 1u);
  obs::set_enabled(false);
  par::set_thread_count(0);
}

TEST(CmaSharded, DenseTilesUseHashedMatching) {
  // 300 nodes over 2x2 big tiles puts every tile's candidate count far
  // past the hash cutoff, so this sweep exercises the per-tile
  // SpatialHash + pruned-cell path of the matcher (the small-n sweeps
  // above all take the plain scan).
  RunSpec spec;
  spec.nodes = 300;
  spec.slots = 4;
  spec.tile_size = 50.0;
  spec.threads = 2;
  spec.seed = 101;
  expect_equivalent(spec);
}

TEST(CmaSharded, SingleTileDegeneratesToGlobalMatch) {
  // Tile size beyond the region: one tile owns everything, the ghost
  // ring is empty, and the matching is just the all-pairs in-range set.
  RunSpec spec;
  spec.tile_size = 1000.0;
  spec.ghost_width = 10.0;
  spec.seed = 89;
  expect_equivalent(spec);
}

}  // namespace
}  // namespace cps::core
