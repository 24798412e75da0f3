// Equivalence suite for the cavity-local incremental δ engine
// (core/delta_incremental.hpp) and the CMA per-slot tracker
// (core/cma_delta.hpp):
//
//  * randomized fuzz — interleaved inserts, duplicate-tolerance hits
//    (z-changing and no-op), moves, and removals, with a cocircular
//    grid-aligned point mix, across the field zoo and 1–4 worker
//    threads; after EVERY event the tracker's value must be
//    bit-identical to a fresh DeltaMetric::delta() sweep AND the
//    remembering-walk oracle (tests/oracle) of the same triangulation
//    (the DESIGN.md §13 oracle protocol);
//  * directed batches: hint chains of non-strict points along lattice
//    rows, flipped far outside the marked cells, and a triangle id
//    created, destroyed and recycled inside one batch;
//  * retarget (reference swap) and batched z-update events against the
//    same oracles;
//  * rebase after a mid-stream thread-count change;
//  * a tracker built straight from a reconstruction, across both corner
//    policies;
//  * CmaDeltaTracker: per-slot tracked δ bit-identical to a fresh sweep
//    of its own triangulation through deaths, revivals, moves, and a
//    position-aliased node pair, and a 2 000-slot run whose vertex table
//    stays bounded by the live count (vertex slots are recycled).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cma.hpp"
#include "core/cma_delta.hpp"
#include "core/delta.hpp"
#include "core/delta_incremental.hpp"
#include "core/fra.hpp"
#include "core/reconstruction.hpp"
#include "field/analytic_fields.hpp"
#include "field/time_varying.hpp"
#include "net/fault.hpp"
#include "numerics/rng.hpp"
#include "obs/timeline.hpp"
#include "oracle/walk_delta.hpp"
#include "parallel/thread_pool.hpp"

namespace cps::core {
namespace {

const num::Rect kRegion{0.0, 0.0, 100.0, 100.0};

field::AnalyticField reference_surface() {
  return field::AnalyticField([](double x, double y) {
    return 10.0 + 0.05 * x * y / 100.0 + 3.0 * (x > 40 && x < 60) +
           2.0 * (y > 20 && y < 50);
  });
}

/// Restores the global worker count on scope exit so a failing test can't
/// poison later ones.
struct ThreadGuard {
  ~ThreadGuard() { par::set_thread_count(1); }
};

/// Arms the telemetry timeline (which pins the 4-row chunk layout) for
/// the scope when `on`.
struct ArmedTimeline {
  explicit ArmedTimeline(bool on) : on_(on) {
    if (on_) obs::timeline().set_armed(true);
  }
  ~ArmedTimeline() {
    if (!on_) return;
    obs::timeline().set_armed(false);
    obs::timeline().clear();
  }
  bool on_;
};

// --- Randomized event fuzz against both fresh oracles ---------------------

/// Drives one triangulation and one IncrementalDelta through `events`
/// random events, comparing against a fresh sweep and the walk oracle
/// after every single one.
void fuzz_events(const field::Field& f, std::uint64_t seed,
                 std::size_t events, std::size_t resolution) {
  DeltaMetric raster(kRegion, resolution);

  geo::Delaunay dt(kRegion);
  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    dt.set_vertex_z(corner, f.value(dt.vertex(corner).pos));
  }
  IncrementalDelta inc(raster, f, dt);

  num::Rng rng(seed);
  // Grid-aligned points produce cocircular quadruples (and exact region
  // corners / borders, so duplicate hits land on the scaffolding too).
  const auto random_point = [&]() -> geo::Vec2 {
    if (rng.uniform() < 0.35) {
      return {12.5 * static_cast<double>(rng.uniform_int(0, 8)),
              12.5 * static_cast<double>(rng.uniform_int(0, 8))};
    }
    return {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  };
  const auto random_z = [&]() { return rng.uniform(-10.0, 10.0); };

  std::vector<int> user;  // Alive non-corner vertices.
  const auto check = [&](std::size_t step, const char* what) {
    SCOPED_TRACE("event " + std::to_string(step) + " (" + what + ")");
    const double fresh = raster.delta(f, dt);
    ASSERT_EQ(inc.value(), fresh);        // Bitwise, not approximately.
    ASSERT_EQ(fresh, oracle::walk_delta(raster, f, dt));  // And the walk.
  };

  for (std::size_t step = 0; step < events; ++step) {
    const double r = rng.uniform();
    const char* what = "";
    if (r < 0.45 || user.empty()) {
      what = "insert";
      const geo::InsertResult ins = dt.insert(random_point(), random_z());
      if (ins.inserted) user.push_back(ins.vertex);
      inc.apply(dt, ins);
    } else if (r < 0.60) {
      // Duplicate-tolerance hit on an existing vertex: half the time with
      // the same z (a true no-op), half with a new one (the z_changed
      // staleness event this PR's bugfix makes visible).
      const int v = user[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(user.size()) - 1))];
      const double z = rng.uniform() < 0.5 ? dt.vertex(v).z : random_z();
      what = "duplicate-hit";
      inc.apply(dt, dt.insert(dt.vertex(v).pos, z));
    } else if (r < 0.80) {
      what = "move";
      const std::size_t slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(user.size()) - 1));
      const geo::MoveResult moved =
          dt.move_vertex(user[slot], random_point(), random_z());
      user.erase(user.begin() + static_cast<std::ptrdiff_t>(slot));
      if (moved.inserted) user.push_back(moved.vertex);
      inc.apply(dt, moved);
    } else {
      what = "remove";
      const std::size_t slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(user.size()) - 1));
      const geo::RemoveResult removal = dt.remove(user[slot]);
      user.erase(user.begin() + static_cast<std::ptrdiff_t>(slot));
      inc.apply(dt, removal);
    }
    check(step, what);
  }

  EXPECT_EQ(inc.stats().events, events);
  // The whole point: strictly cheaper than `events` full sweeps (the
  // bench_perf gate demands >= 10x at scale; here the triangulation is
  // tiny, so the cavities are big and the bar is loose).
  EXPECT_LT(inc.stats().points_reevaluated,
            events * inc.stats().full_sweep_points);
}

/// Like fuzz_events, but folds the events in random-size batches: every
/// event is marked right after it happens and the tracker is committed
/// (and checked against a fresh sweep and the walk oracle) only at the
/// end of each batch.  Batches mix topology and z-only events, so
/// triangle ids freed early in a batch are routinely recycled by later
/// events before the commit.
void fuzz_batches(const field::Field& f, std::uint64_t seed,
                  std::size_t batches, std::size_t resolution) {
  DeltaMetric raster(kRegion, resolution);
  geo::Delaunay dt(kRegion);
  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    dt.set_vertex_z(corner, f.value(dt.vertex(corner).pos));
  }
  IncrementalDelta inc(raster, f, dt);

  num::Rng rng(seed);
  const auto random_point = [&]() -> geo::Vec2 {
    // Lattice-aligned sites (res-40 midpoints sit at 1.25 + 2.5 i): edges
    // between them run through lattice points, so batches churn the
    // non-strict, hint-dependent assignments a commit must re-walk in
    // ascending order.
    if (rng.uniform() < 0.5) {
      return {1.25 + 12.5 * static_cast<double>(rng.uniform_int(0, 7)),
              1.25 + 12.5 * static_cast<double>(rng.uniform_int(0, 7))};
    }
    return {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  };
  const auto random_z = [&]() { return rng.uniform(-10.0, 10.0); };
  const auto pick = [&](const std::vector<int>& v) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1));
  };

  std::vector<int> user;
  const std::size_t full = inc.stats().full_sweep_points;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 14));
    const std::size_t points0 = inc.stats().points_reevaluated;
    const std::size_t relocates0 = inc.stats().relocates;
    bool topology = false;
    for (std::size_t e = 0; e < size; ++e) {
      const double r = rng.uniform();
      if (r < 0.35 || user.empty()) {
        const geo::InsertResult ins = dt.insert(random_point(), random_z());
        if (ins.inserted) user.push_back(ins.vertex);
        topology = topology || ins.inserted;
        inc.mark(dt, ins);
      } else if (r < 0.45) {
        const int v = user[pick(user)];
        inc.mark(dt, dt.insert(dt.vertex(v).pos, random_z()));
      } else if (r < 0.65) {
        // z-only: a user vertex or a corner re-valued in place.
        const int v = rng.uniform() < 0.2
                          ? static_cast<int>(rng.uniform_int(0, 3))
                          : user[pick(user)];
        dt.set_vertex_z(v, random_z());
        inc.mark_z(dt, dt.vertex_star(v));
      } else if (r < 0.85) {
        const std::size_t slot = pick(user);
        const geo::MoveResult moved =
            dt.move_vertex(user[slot], random_point(), random_z());
        user.erase(user.begin() + static_cast<std::ptrdiff_t>(slot));
        if (moved.inserted) user.push_back(moved.vertex);
        topology = true;
        inc.mark(dt, moved);
      } else {
        const std::size_t slot = pick(user);
        const geo::RemoveResult removal = dt.remove(user[slot]);
        user.erase(user.begin() + static_cast<std::ptrdiff_t>(slot));
        topology = true;
        inc.mark(dt, removal);
      }
    }
    inc.commit(dt);
    SCOPED_TRACE("batch " + std::to_string(b) + " of " +
                 std::to_string(size) + " events");
    const double fresh = raster.delta(f, dt);
    ASSERT_EQ(inc.value(), fresh);
    ASSERT_EQ(fresh, oracle::walk_delta(raster, f, dt));
    // One commit re-evaluates each lattice point at most once.
    EXPECT_LE(inc.stats().points_reevaluated - points0, full);
    // A z-only batch never re-assigns.
    if (!topology) {
      EXPECT_EQ(inc.stats().relocates, relocates0);
    }
  }
  EXPECT_EQ(inc.stats().events, batches);
  // A commit with nothing marked since the last one is a no-op.
  const double before = inc.value();
  inc.commit(dt);
  EXPECT_EQ(inc.value(), before);
  EXPECT_EQ(inc.stats().events, batches);
}

TEST(IncrementalDeltaFuzz, BatchedCommitsMatchBothOracles) {
  ThreadGuard guard;
  const auto f = reference_surface();
  const field::PeaksField peaks(kRegion);
  for (const bool armed : {false, true}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(armed ? "armed" : "disarmed") +
                   " threads=" + std::to_string(threads));
      par::set_thread_count(threads);
      const ArmedTimeline timeline(armed);
      fuzz_batches(f, 900 + threads + (armed ? 10 : 0), 40, 40);
      fuzz_batches(peaks, 950 + threads + (armed ? 10 : 0), 24, 36);
    }
  }
}

TEST(IncrementalDeltaFuzz, MatchesBothOraclesAcrossThreads) {
  ThreadGuard guard;
  const auto f = reference_surface();
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::set_thread_count(threads);
    fuzz_events(f, 100 + threads, 48, 40);
  }
}

TEST(IncrementalDeltaFuzz, ArmedTimelinePinsChunkLayoutAtOneThread) {
  // Armed, one thread runs the 4-row chunk layout instead of the serial
  // chain: tracker, sweep and walk oracle must all switch together.
  ThreadGuard guard;
  par::set_thread_count(1);
  const ArmedTimeline armed(true);
  fuzz_events(reference_surface(), 404, 24, 40);
}

TEST(IncrementalDeltaFuzz, FieldZoo) {
  ThreadGuard guard;
  const field::PeaksField peaks(kRegion);
  const field::GaussianMixtureField bumps(
      1.0, {{{20.0, 20.0}, 9.0, 3.0}, {{70.0, 55.0}, -2.0, 14.0}});
  const field::PlaneField plane(1.0, 0.25, -0.125);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    par::set_thread_count(threads);
    fuzz_events(peaks, 7 + threads, 32, 36);
    fuzz_events(bumps, 11 + threads, 32, 36);
    fuzz_events(plane, 13 + threads, 32, 36);
  }
}

/// One batch in which a triangle created by the first event is destroyed
/// by the second and its id recycled by the third, over lattice-aligned
/// sites (their vertices and edges hold non-strict lattice points), then
/// one commit: every span-tier, keep and walk decision must land where a
/// fresh sweep and the walk oracle put it.
void recycled_id_batch(const field::Field& f) {
  constexpr std::size_t kRes = 40;  // Midpoints at 1.25 + 2.5 i.
  DeltaMetric raster(kRegion, kRes);
  geo::Delaunay dt(kRegion);
  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    dt.set_vertex_z(corner, f.value(dt.vertex(corner).pos));
  }
  num::Rng rng(21);
  for (int i = 0; i < 30; ++i) {
    dt.insert({1.25 + 2.5 * static_cast<double>(rng.uniform_int(0, 39)),
               1.25 + 2.5 * static_cast<double>(rng.uniform_int(0, 39))},
              rng.uniform(-10.0, 10.0));
  }
  IncrementalDelta inc(raster, f, dt);
  const IncrementalDelta::Stats before = inc.stats();

  const geo::InsertResult first = dt.insert({41.25, 41.25}, 7.5);
  ASSERT_TRUE(first.inserted);
  inc.mark(dt, first);
  // A site inside the first fan kills part of it...
  const auto& t0 = dt.triangle(first.created_triangles.front());
  const geo::Vec2 inner = (dt.vertex(t0.v[0]).pos + dt.vertex(t0.v[1]).pos +
                           dt.vertex(t0.v[2]).pos) /
                          3.0;
  const geo::InsertResult second = dt.insert(inner, -4.0);
  ASSERT_TRUE(second.inserted);
  inc.mark(dt, second);
  // ...and a far insertion recycles the freed ids (the free list is LIFO).
  const geo::InsertResult third = dt.insert({86.25, 13.75}, 3.0);
  ASSERT_TRUE(third.inserted);
  inc.mark(dt, third);
  bool recycled = false;
  for (const int tid : first.created_triangles) {
    const bool killed =
        std::find(second.removed_triangles.begin(),
                  second.removed_triangles.end(),
                  tid) != second.removed_triangles.end();
    const bool reused = std::find(third.created_triangles.begin(),
                                  third.created_triangles.end(),
                                  tid) != third.created_triangles.end();
    recycled = recycled || (killed && reused);
  }
  ASSERT_TRUE(recycled) << "the batch must recycle a first-event id";
  inc.commit(dt);

  const double fresh = raster.delta(f, dt);
  EXPECT_EQ(inc.value(), fresh);
  EXPECT_EQ(fresh, oracle::walk_delta(raster, f, dt));
  // All three tiers ran: span hits inside the fans, keeps in the guard
  // band around them (old triangles that survived), and walks for the
  // non-strict points.
  EXPECT_GT(inc.stats().span_assigns, before.span_assigns);
  EXPECT_GT(inc.stats().keeps, before.keeps);
  EXPECT_GT(inc.stats().relocates, before.relocates);
  EXPECT_EQ(inc.stats().events, before.events + 1);
  EXPECT_EQ(inc.stats().points_reevaluated - before.points_reevaluated,
            (inc.stats().span_assigns - before.span_assigns) +
                (inc.stats().keeps - before.keeps) +
                (inc.stats().relocates - before.relocates));

  // A follow-up single-event commit starts from the repaired state.
  inc.apply(dt, dt.insert({18.75, 68.75}, 1.0));
  EXPECT_EQ(inc.value(), raster.delta(f, dt));
  EXPECT_EQ(inc.value(), oracle::walk_delta(raster, f, dt));
}

/// A triangulation whose vertices sit on four lattice rows, joined by
/// horizontal edges that run along those rows across the whole region.
/// Every lattice point on such a row is non-strict, and its assignment
/// (the triangle above or below the edge) follows the walk hint handed
/// along the row from the left, so an event near a row's left end can
/// flip assignments far outside its marked cells (as can one near the
/// right end of the row below, which hands the chain its first hint).
/// The surface samples the reference plane exactly, so |ref - DT| is
/// rounding noise and a stale assignment's last-ulp interpolation
/// difference is not absorbed by a large running sum.  (Dropping the
/// non-strict re-walk, or visiting the dirty rows in descending order,
/// fails this test and no other.)
void chain_events(std::uint64_t seed, bool batched) {
  constexpr std::size_t kRes = 40;  // Midpoints at 1.25 + 2.5 i.
  const field::PlaneField f(3.0, 0.125, -0.0625);
  DeltaMetric raster(kRegion, kRes);
  geo::Delaunay dt(kRegion);
  for (int corner = 0; corner < geo::Delaunay::kCorners; ++corner) {
    dt.set_vertex_z(corner, f.value(dt.vertex(corner).pos));
  }
  const auto insert = [&](geo::Vec2 p) { return dt.insert(p, f.value(p)); };
  for (int row = 0; row < 4; ++row) {
    const double y = 21.25 + 20.0 * row;
    const double x0 = row % 2 == 0 ? 1.25 : 6.25;
    for (int m = 0; m < 10; ++m) insert({x0 + 10.0 * m, y});
  }
  IncrementalDelta inc(raster, f, dt);
  num::Rng rng(seed);
  std::vector<int> user;
  for (std::size_t step = 0; step < 40; ++step) {
    if (rng.uniform() < 0.6 || user.empty()) {
      const double row_y = 21.25 + 20.0 * static_cast<double>(
                                              rng.uniform_int(0, 3));
      // Near a row's left end, where its hint chain starts, or near its
      // right end, where the previous lattice row hands its last hint
      // over to the next row's first point.
      const double x = rng.uniform() < 0.5 ? rng.uniform(0.5, 20.0)
                                           : rng.uniform(80.0, 99.5);
      const geo::InsertResult ins =
          insert({x, row_y + rng.uniform(-6.0, 6.0)});
      if (ins.inserted) user.push_back(ins.vertex);
      inc.mark(dt, ins);
    } else {
      const auto slot = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(user.size()) - 1));
      const geo::RemoveResult removal = dt.remove(user[slot]);
      user.erase(user.begin() + static_cast<std::ptrdiff_t>(slot));
      inc.mark(dt, removal);
    }
    if (batched && rng.uniform() < 0.6) continue;
    inc.commit(dt);
    SCOPED_TRACE("step " + std::to_string(step));
    const double fresh = raster.delta(f, dt);
    ASSERT_EQ(inc.value(), fresh);
    ASSERT_EQ(fresh, oracle::walk_delta(raster, f, dt));
  }
}

TEST(IncrementalDelta, NonStrictChainsOutsideTheMarksAreReWalked) {
  ThreadGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    par::set_thread_count(threads);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " seed=" + std::to_string(seed));
      chain_events(seed, false);
      chain_events(seed + 100, true);
    }
  }
}

TEST(IncrementalDelta, RecycledIdInsideOneBatchMatchesBothOracles) {
  ThreadGuard guard;
  const auto f = reference_surface();
  const field::PeaksField peaks(kRegion);
  for (const bool armed : {false, true}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(armed ? "armed" : "disarmed") +
                   " threads=" + std::to_string(threads));
      par::set_thread_count(threads);
      const ArmedTimeline timeline(armed);
      recycled_id_batch(f);
      recycled_id_batch(peaks);
    }
  }
}

// --- Reference swaps and batched z updates --------------------------------

TEST(IncrementalDelta, RetargetSwapsReferenceWithoutGeometryWork) {
  const auto a = reference_surface();
  const field::PeaksField b(kRegion);
  DeltaMetric metric(kRegion, 48);

  geo::Delaunay dt(kRegion);
  num::Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    dt.insert({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)},
              rng.uniform(-5.0, 5.0));
  }
  IncrementalDelta inc(metric, a, dt);
  ASSERT_EQ(inc.value(), metric.delta(a, dt));

  inc.retarget(metric, b);
  EXPECT_EQ(inc.value(), metric.delta(b, dt));
  EXPECT_EQ(inc.stats().retargets, 1u);
  // The swap is fold-only: no lattice point was re-assigned.
  EXPECT_EQ(inc.stats().points_reevaluated, 0u);

  // Events keep folding against the new reference.
  inc.apply(dt, dt.insert({33.3, 44.4}, 2.5));
  EXPECT_EQ(inc.value(), metric.delta(b, dt));

  // A mismatched lattice is rejected.
  DeltaMetric other(kRegion, 32);
  EXPECT_THROW(inc.retarget(other, b), std::invalid_argument);
}

TEST(IncrementalDelta, BatchedZUpdatesMatchFreshSweep) {
  const auto f = reference_surface();
  DeltaMetric metric(kRegion, 48);
  geo::Delaunay dt(kRegion);
  num::Rng rng(9);
  std::vector<int> verts;
  for (int i = 0; i < 20; ++i) {
    const geo::InsertResult ins =
        dt.insert({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)},
                  rng.uniform(-5.0, 5.0));
    if (ins.inserted) verts.push_back(ins.vertex);
  }
  IncrementalDelta inc(metric, f, dt);

  // Re-value a handful of vertices (plus one corner), then fold the whole
  // batch as ONE event over the union of their stars.
  std::vector<int> stars;
  const auto touch = [&](int v, double z) {
    dt.set_vertex_z(v, z);
    const std::vector<int> star = dt.vertex_star(v);
    stars.insert(stars.end(), star.begin(), star.end());
  };
  touch(verts[2], 7.5);
  touch(verts[9], -3.25);
  touch(0, 1.75);  // Corner scaffolding.
  std::sort(stars.begin(), stars.end());
  stars.erase(std::unique(stars.begin(), stars.end()), stars.end());
  inc.mark_z(dt, stars);
  inc.commit(dt);

  EXPECT_EQ(inc.value(), metric.delta(f, dt));
  EXPECT_EQ(inc.stats().events, 1u);
  EXPECT_EQ(inc.stats().relocates, 0u);  // z-only: no re-assignment.
}

TEST(IncrementalDelta, RebaseRecapturesChunkLayout) {
  ThreadGuard guard;
  const auto f = reference_surface();
  DeltaMetric metric(kRegion, 40);
  geo::Delaunay dt(kRegion);
  num::Rng rng(3);
  for (int i = 0; i < 15; ++i) {
    dt.insert({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)},
              rng.uniform(-5.0, 5.0));
  }

  par::set_thread_count(1);
  IncrementalDelta inc(metric, f, dt);
  ASSERT_EQ(inc.value(), metric.delta(f, dt));

  // Changing the worker count changes delta()'s chunk layout; the stored
  // partial sums are for the old layout, so the tracker must rebase.
  par::set_thread_count(4);
  inc.rebase(dt);
  EXPECT_EQ(inc.value(), metric.delta(f, dt));
  EXPECT_EQ(inc.stats().rebuilds, 2u);  // Construction + rebase.

  inc.apply(dt, dt.insert({12.0, 87.0}, 4.0));
  EXPECT_EQ(inc.value(), metric.delta(f, dt));
}

// --- A tracker built from a reconstruction -------------------------------

TEST(IncrementalDelta, FreshTrackerMatchesSweepAcrossPolicies) {
  const auto f = reference_surface();
  const auto samples = take_samples(
      f, std::vector<geo::Vec2>{{15.0, 25.0}, {60.0, 10.0}, {50.0, 50.0},
                                {80.0, 75.0}, {30.0, 90.0}});
  DeltaMetric metric(kRegion, 50);
  for (const auto policy :
       {CornerPolicy::kNearestSample, CornerPolicy::kFieldValue}) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)));
    const geo::Delaunay dt = reconstruct_surface(samples, kRegion, policy, &f);
    const double tracked = IncrementalDelta(metric, f, dt).value();
    EXPECT_EQ(tracked, metric.delta_from_samples(f, samples, policy));
    EXPECT_EQ(tracked, oracle::walk_delta(metric, f, dt));
  }
}

// --- FRA what-if tracking --------------------------------------------------

TEST(IncrementalDelta, FraTrackedTrajectoryMatchesDeploymentSweeps) {
  const auto f = reference_surface();
  DeltaMetric metric(kRegion, 64);

  FraConfig cfg;
  cfg.error_grid = 40;
  cfg.track_delta = &metric;
  FraPlanner planner(cfg);
  const FraResult plan =
      planner.plan_detailed(f, PlanRequest{kRegion, 40, 10.0});

  ASSERT_EQ(plan.delta_trajectory.size(), plan.steps.size());
  ASSERT_FALSE(plan.delta_trajectory.empty());
  // The headline contract fig7 relies on: the tracked final δ is the
  // delta_of_deployment value, bitwise — FRA's own triangulation IS the
  // kFieldValue reconstruction of its output.
  EXPECT_EQ(plan.final_delta,
            metric.delta_of_deployment(f, plan.deployment.positions,
                                       CornerPolicy::kFieldValue));
  EXPECT_EQ(plan.final_delta, plan.delta_trajectory.back());
  // And so is every prefix (spot-checked): the trajectory is the per-k
  // what-if series without per-k replanning.
  for (std::size_t i = 9; i < plan.steps.size(); i += 10) {
    SCOPED_TRACE("prefix " + std::to_string(i + 1));
    const std::vector<geo::Vec2> prefix(
        plan.deployment.positions.begin(),
        plan.deployment.positions.begin() + static_cast<std::ptrdiff_t>(i) +
            1);
    EXPECT_EQ(plan.delta_trajectory[i],
              metric.delta_of_deployment(f, prefix,
                                         CornerPolicy::kFieldValue));
  }
  EXPECT_EQ(plan.delta_stats.events, plan.steps.size());
  EXPECT_LT(plan.delta_stats.points_reevaluated,
            plan.delta_stats.events * plan.delta_stats.full_sweep_points);

  // Tracking must not perturb planning: the untracked plan is identical.
  FraConfig plain_cfg = cfg;
  plain_cfg.track_delta = nullptr;
  const FraResult plain =
      FraPlanner(plain_cfg).plan_detailed(f, PlanRequest{kRegion, 40, 10.0});
  ASSERT_EQ(plain.deployment.positions.size(),
            plan.deployment.positions.size());
  for (std::size_t i = 0; i < plain.deployment.positions.size(); ++i) {
    EXPECT_EQ(plain.deployment.positions[i].x,
              plan.deployment.positions[i].x);
    EXPECT_EQ(plain.deployment.positions[i].y,
              plan.deployment.positions[i].y);
  }
  EXPECT_TRUE(plain.delta_trajectory.empty());
}

// --- CmaDeltaTracker -------------------------------------------------------

/// The tracked surface is reconstruct_surface(sense_at_nodes()) at the
/// current slice: every living node has a vertex at its exact position
/// carrying the slice value there, no other user vertex is alive, and
/// each corner carries the value at its nearest living node (ties to the
/// highest index).  A stale z would still match a fresh sweep of the
/// same triangulation, so the δ checks alone cannot see it.
void expect_sensed_surface(const CmaSimulation& sim, const geo::Delaunay& dt) {
  const field::FieldSlice slice(sim.environment(), sim.time());
  std::size_t living_sites = 0;
  for (int v = geo::Delaunay::kCorners;
       v < static_cast<int>(dt.vertex_count()); ++v) {
    if (!dt.vertex_alive(v)) continue;
    ++living_sites;
    const geo::Vec2 p = dt.vertex(v).pos;
    EXPECT_EQ(dt.vertex(v).z, slice.value(p)) << "vertex " << v;
    bool held = false;
    for (std::size_t i = 0; i < sim.node_count(); ++i) {
      held = held || (sim.is_alive(i) && sim.positions()[i].x == p.x &&
                      sim.positions()[i].y == p.y);
    }
    EXPECT_TRUE(held) << "vertex " << v << " has no living node";
  }
  std::vector<geo::Vec2> sites;
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    if (!sim.is_alive(i)) continue;
    const geo::Vec2 p = sim.positions()[i];
    if (std::none_of(sites.begin(), sites.end(), [&](geo::Vec2 q) {
          return q.x == p.x && q.y == p.y;
        })) {
      sites.push_back(p);
    }
  }
  EXPECT_EQ(living_sites, sites.size());
  for (int c = 0; c < geo::Delaunay::kCorners; ++c) {
    const geo::Vec2 corner = dt.vertex(c).pos;
    double best = std::numeric_limits<double>::infinity();
    double z = 0.0;
    for (std::size_t i = 0; i < sim.node_count(); ++i) {
      if (!sim.is_alive(i)) continue;
      const double d2 = geo::distance_sq(corner, sim.positions()[i]);
      if (d2 <= best) {
        best = d2;
        z = slice.value(sim.positions()[i]);
      }
    }
    EXPECT_EQ(dt.vertex(c).z, z) << "corner " << c;
  }
}

TEST(CmaDeltaTracker, TracksOwnTriangulationBitExactlyThroughChurn) {
  const field::AnalyticTimeField env([](double x, double y, double t) {
    return 10.0 + 0.04 * x + 0.03 * y +
           3.0 * std::sin(0.05 * x + 0.3 * t) * std::cos(0.07 * y - 0.2 * t);
  });
  // A connected 3x3 grid plus one node stacked exactly on another: the
  // pair stays coincident (the repulsion kernel pushes both identically),
  // exercising the vertex-aliasing refcount path every slot.
  std::vector<geo::Vec2> pts;
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 3; ++i) {
      pts.push_back({40.0 + i * 6.0, 40.0 + j * 6.0});
    }
  }
  pts.push_back(pts[4]);

  // A second stacked pair (nodes 1 and 10): one holder dies while the
  // other keeps the shared vertex, later revives at its carcass, and then
  // the other holder dies.
  pts.push_back(pts[1]);

  CmaConfig cfg;
  CmaSimulation sim(env, kRegion, pts, cfg);
  net::FaultSchedule faults;
  faults.add_death(2, 4);
  faults.add_death(4, 7);
  faults.add_revival(6, 4);
  faults.add_death(3, 10);    // One holder of the second pair leaves.
  faults.add_death(5, 0);     // A death and a revival in one slot.
  faults.add_revival(5, 7);
  faults.add_revival(8, 10);  // The departed holder comes back...
  faults.add_death(9, 1);     // ...and the one that stayed dies.
  sim.set_fault_schedule(std::move(faults));

  DeltaMetric metric(kRegion, 40);
  CmaDeltaTracker tracker(sim, metric);
  // At construction the tracker's triangulation mirrors
  // reconstruct_surface(sense_at_nodes()) exactly, so even the end-to-end
  // pipeline value matches bitwise.
  ASSERT_EQ(tracker.value(), sim.current_delta(metric));
  const std::size_t res_sq = metric.resolution() * metric.resolution();

  for (std::size_t slot = 1; slot <= 12; ++slot) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    const std::size_t points0 = tracker.delta_stats().points_reevaluated;
    const std::size_t events0 = tracker.delta_stats().events;
    sim.step();
    const double tracked = tracker.update(sim);
    // The whole slot is one committed batch: each lattice point is
    // re-evaluated at most once, however many nodes moved or died.
    EXPECT_EQ(tracker.delta_stats().events - events0, 1u);
    EXPECT_LE(tracker.delta_stats().points_reevaluated - points0, res_sq);
    // The contract: bit-identical to a fresh sweep of the tracker's OWN
    // triangulation (same point set as the from-scratch path, but its
    // Delaunay history differs, so only cocircular tie-breaks may vary).
    ASSERT_EQ(tracked,
              metric.delta(field::FieldSlice(env, sim.time()),
                           tracker.triangulation()));
    const double fresh = sim.current_delta(metric);
    EXPECT_NEAR(tracked, fresh, 0.1 * std::abs(fresh) + 1e-9);
    expect_sensed_surface(sim, tracker.triangulation());
  }

  EXPECT_EQ(tracker.stats().slots, 12u);
  EXPECT_EQ(tracker.stats().node_deaths, 5u);
  EXPECT_EQ(tracker.stats().node_revivals, 3u);
  EXPECT_GT(tracker.stats().node_moves, 0u);
  EXPECT_GT(tracker.stats().merges, 0u);  // The stacked pair.
  EXPECT_EQ(tracker.delta_stats().retargets, 12u);
  EXPECT_EQ(tracker.delta_stats().rebuilds, 1u);  // Construction only.
}

/// Zero velocity: nobody moves, so every slot's batch is deaths,
/// revivals and the z-only marks of the sensor refresh and the corners —
/// the paths a moving swarm hides under its move cavities.
void track_stationary_swarm(const field::TimeVaryingField& env) {
  std::vector<geo::Vec2> pts;
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      pts.push_back({15.0 + i * 22.0, 12.0 + j * 25.0});
    }
  }
  pts.push_back(pts[5]);  // Aliased pair (nodes 5 and 16).
  CmaConfig cfg;
  cfg.velocity = 0.0;
  CmaSimulation sim(env, kRegion, pts, cfg);
  net::FaultSchedule faults;
  faults.add_death(2, 0);     // Corner 0's nearest node dies...
  faults.add_death(3, 16);    // ...one holder of the pair leaves...
  faults.add_revival(5, 0);   // ...corner 0's nearest node returns...
  faults.add_death(6, 5);     // ...the other holder leaves too...
  faults.add_revival(7, 16);  // ...and one comes back.
  sim.set_fault_schedule(std::move(faults));

  DeltaMetric metric(kRegion, 32);
  CmaDeltaTracker tracker(sim, metric);
  for (std::size_t slot = 1; slot <= 8; ++slot) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    const std::size_t events0 = tracker.delta_stats().events;
    sim.step();
    const double tracked = tracker.update(sim);
    ASSERT_EQ(tracked, metric.delta(field::FieldSlice(env, sim.time()),
                                    tracker.triangulation()));
    expect_sensed_surface(sim, tracker.triangulation());
    // At most one commit per slot (none when nothing changed).
    EXPECT_LE(tracker.delta_stats().events - events0, 1u);
  }
  EXPECT_EQ(tracker.stats().node_moves, 0u);
  EXPECT_EQ(tracker.stats().node_deaths, 3u);
  EXPECT_EQ(tracker.stats().node_revivals, 2u);
}

TEST(CmaDeltaTracker, StationaryNodesReSenseEverySlot) {
  // Every unmoved node's z changes every slot.
  track_stationary_swarm(field::AnalyticTimeField([](double x, double y,
                                                     double t) {
    return 5.0 + 0.02 * x * y / 100.0 + 2.0 * std::sin(0.08 * x - 0.4 * t) +
           std::cos(0.06 * y + 0.25 * t);
  }));
  // A static field: node z never changes, so a corner re-valued by a
  // death or revival is the only z-only change, and its star must be
  // marked on its own.
  track_stationary_swarm(field::AnalyticTimeField(
      [](double x, double y, double) {
        return 5.0 + 0.05 * x - 0.03 * y + 0.001 * x * y;
      }));
}

TEST(CmaDeltaTracker, LongRunRecyclesVertexSlots) {
  // Every move removes a vertex and re-inserts it elsewhere, and deaths
  // and revivals churn more slots.  Without vertex-slot recycling the
  // triangulation's vertex table grows by roughly one record per move and
  // slot; with it the table stays near the live count, and the tracked δ
  // stays bitwise equal to a fresh sweep.
  const field::AnalyticTimeField env([](double x, double y, double t) {
    return 10.0 + 0.04 * x + 0.03 * y +
           3.0 * std::sin(0.09 * x + 0.35 * t) * std::cos(0.08 * y - 0.3 * t);
  });
  std::vector<geo::Vec2> pts;
  for (int j = 0; j < 5; ++j) {
    for (int i = 0; i < 6; ++i) {
      pts.push_back({30.0 + i * 7.0, 30.0 + j * 7.0});
    }
  }
  CmaConfig cfg;
  cfg.velocity = 2.0;
  CmaSimulation sim(env, kRegion, pts, cfg);
  net::FaultSchedule faults;
  constexpr std::size_t kSlots = 2000;
  for (std::size_t slot = 50; slot < kSlots; slot += 50) {
    const std::size_t node = (slot / 50) % pts.size();
    faults.add_death(slot, node);
    faults.add_revival(slot + 20, node);
  }
  sim.set_fault_schedule(std::move(faults));

  DeltaMetric metric(kRegion, 32);
  CmaDeltaTracker tracker(sim, metric);
  for (std::size_t slot = 1; slot <= kSlots; ++slot) {
    sim.step();
    const double tracked = tracker.update(sim);
    const geo::Delaunay& dt = tracker.triangulation();
    std::size_t alive = 0;
    for (int v = geo::Delaunay::kCorners;
         v < static_cast<int>(dt.vertex_count()); ++v) {
      alive += dt.vertex_alive(v) ? 1 : 0;
    }
    ASSERT_LE(dt.vertex_count(), 2 * (alive + geo::Delaunay::kCorners))
        << "slot " << slot;
    if (slot % 100 == 0) {
      SCOPED_TRACE("slot " + std::to_string(slot));
      ASSERT_EQ(tracked,
                metric.delta(field::FieldSlice(env, sim.time()), dt));
      expect_sensed_surface(sim, dt);
    }
  }
  // The run really churned: far more moves than the table holds slots.
  EXPECT_GT(tracker.stats().node_moves,
            20 * tracker.triangulation().vertex_count());
  EXPECT_GT(tracker.stats().node_deaths, 30u);
}

}  // namespace
}  // namespace cps::core
