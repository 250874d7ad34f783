// Sweep determinism + bounded-memory battery: the grid is lazy
// (index-decoded, never materialised), sequential, threaded and repeated
// sweeps agree bit for bit on every field a report carries, the number of
// simultaneously-live replay workspaces is bounded by the host thread
// count, and every double of the design_sweep grid is pinned.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hint/hint.hpp"
#include "machines/description.hpp"
#include "machines/sweep.hpp"
#include "radabs/radabs.hpp"
#include "support/fnv1a.hpp"
#include "sxs/execution_policy.hpp"

namespace {

using ncar::ThreadPool;
using ncar::machines::Axis;
using ncar::machines::builtin_catalog;
using ncar::machines::builtin_names;
using ncar::machines::Comparator;
using ncar::machines::Grid;
using ncar::machines::MachineDescription;
using ncar::machines::Probe;
using ncar::machines::record_probe;
using ncar::machines::replay_probe;
using ncar::machines::run_sweep;
using ncar::machines::SweepOptions;
using ncar::machines::SweepReport;
using ncar::sxs::ExecutionPolicy;

MachineDescription sx4_base() { return builtin_catalog().at("NEC SX-4/1"); }

/// The small grid used by the determinism tests: 3*2*2*2 = 24 points,
/// including invalid combinations (pipes=3 never divides VL 64/256).
Grid small_grid() {
  return Grid(sx4_base(), {
                              {"pipes_per_group", {3, 8, 16}},
                              {"vector_length", {64, 256}},
                              {"port_bytes_per_clock", {32, 128}},
                              {"memory_banks", {256, 1024}},
                          });
}

/// A double's bit pattern: equal patterns, not merely equal values.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(bits(x));
  return out;
}

/// Every field of `b` that design_sweep's report writes equals `a`'s bit
/// for bit (peak_live_workspaces, a host gauge, is never written).
void expect_same_report(const SweepReport& a, const SweepReport& b) {
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.base.name, b.base.name);
  ASSERT_EQ(a.base.entries.size(), b.base.entries.size());
  for (std::size_t i = 0; i < a.base.entries.size(); ++i) {
    EXPECT_EQ(a.base.entries[i].first, b.base.entries[i].first);
    EXPECT_EQ(bits(a.base.entries[i].second), bits(b.base.entries[i].second));
  }
  ASSERT_EQ(a.axes.size(), b.axes.size());
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    EXPECT_EQ(a.axes[i].key, b.axes[i].key);
    EXPECT_EQ(bits(a.axes[i].values), bits(b.axes[i].values));
  }
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& p = a.points[i];
    const auto& q = b.points[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(p.index, q.index);
    EXPECT_EQ(bits(p.values), bits(q.values));
    EXPECT_EQ(p.valid, q.valid);
    EXPECT_EQ(p.error, q.error);
    EXPECT_EQ(bits(p.seconds), bits(q.seconds));
    EXPECT_EQ(bits(p.hw_mflops), bits(q.hw_mflops));
    EXPECT_EQ(bits(p.memory_gain), bits(q.memory_gain));
    EXPECT_EQ(bits(p.compute_gain), bits(q.compute_gain));
    EXPECT_EQ(p.memory_bound, q.memory_bound);
  }
  ASSERT_EQ(a.flips.size(), b.flips.size());
  for (std::size_t i = 0; i < a.flips.size(); ++i) {
    EXPECT_EQ(a.flips[i].from, b.flips[i].from);
    EXPECT_EQ(a.flips[i].to, b.flips[i].to);
    EXPECT_EQ(a.flips[i].axis, b.flips[i].axis);
  }
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

// ---------------------------------------------------------------------------
// Grid

TEST(Grid, MixedRadixDecodingFirstAxisFastest) {
  const Grid g(sx4_base(), {{"pipes_per_group", {2, 4, 8}},
                            {"memory_banks", {256, 1024}}});
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(g.coordinates(0), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(g.coordinates(1), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(g.coordinates(2), (std::vector<std::size_t>{2, 0}));
  EXPECT_EQ(g.coordinates(3), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(g.coordinates(5), (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(g.values(4), (std::vector<double>{4, 1024}));
  const MachineDescription d = g.config(4);
  EXPECT_EQ(d.get_or("pipes_per_group", 0.0), 4.0);
  EXPECT_EQ(d.get_or("memory_banks", 0.0), 1024.0);
  EXPECT_EQ(d.get_or("clock_ns", 0.0), 9.2);  // base survives the overlay
}

TEST(Grid, NeighborWalksOneAxisAndStopsAtTheEdge) {
  const Grid g(sx4_base(), {{"pipes_per_group", {2, 4, 8}},
                            {"memory_banks", {256, 1024}}});
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(2, 0), g.size());  // pipes already at the last value
  EXPECT_EQ(g.neighbor(0, 1), 3u);
  EXPECT_EQ(g.neighbor(3, 1), g.size());  // banks already at the last value
}

TEST(Grid, HugeGridsStayLazy) {
  // A ~10^8-point grid must construct instantly and answer point queries
  // without materialising anything: memory stays O(axes), not O(points).
  std::vector<double> many;
  for (int i = 1; i <= 10'000; ++i) many.push_back(i);
  const Grid g(sx4_base(), {{"cache_miss_clocks", many},
                            {"vector_startup_clocks", many}});
  ASSERT_EQ(g.size(), 100'000'000u);
  const MachineDescription d = g.config(g.size() - 1);
  EXPECT_EQ(d.get_or("cache_miss_clocks", 0.0), 10'000.0);
  EXPECT_EQ(d.get_or("vector_startup_clocks", 0.0), 10'000.0);
  EXPECT_EQ(g.neighbor(g.size() - 1, 0), g.size());
}

TEST(Grid, RejectsBadAxes) {
  EXPECT_THROW(Grid(sx4_base(), {{"warp_factor", {1}}}), ncar::config_error);
  EXPECT_THROW(Grid(sx4_base(), {{"pipes_per_group", {}}}),
               ncar::config_error);
  EXPECT_THROW(Grid(sx4_base(), {{"pipes_per_group", {2}},
                                 {"pipes_per_group", {4}}}),
               ncar::config_error);
}

// ---------------------------------------------------------------------------
// Probe record / replay

TEST(Probe, RecordedRadabsReplaysBitIdentically) {
  // The whole engine rests on this: replaying the recorded op stream must
  // charge exactly what the real kernel run charged, machine by machine.
  // The catalog holds scalar machines too, so the Comparator's scalar
  // fallback is proven against a direct run as well.
  const auto& probe = record_probe("radabs");
  EXPECT_GT(probe.ops.size(), 1000u);
  for (const std::string& name : builtin_names()) {
    SCOPED_TRACE(name);
    Comparator machine(ncar::machines::spec_for(name));
    const auto direct = ncar::radabs::run_radabs_standard(machine);
    const auto replay = replay_probe(probe, ncar::machines::spec_for(name));
    EXPECT_EQ(replay.seconds, direct.seconds);
    EXPECT_EQ(replay.seconds, machine.seconds().value());
    EXPECT_EQ(replay.hw_flops, machine.hw_flops().value());
  }
}

TEST(Probe, RecordedHintReplaysBitIdentically) {
  const auto& probe = record_probe("hint");
  for (const std::string& name : builtin_names()) {
    SCOPED_TRACE(name);
    Comparator machine(ncar::machines::spec_for(name));
    const auto direct = ncar::hint::run_hint(machine, 50'000);
    const auto replay = replay_probe(probe, ncar::machines::spec_for(name));
    EXPECT_EQ(replay.seconds, direct.seconds);
    EXPECT_EQ(replay.seconds, machine.seconds().value());
    EXPECT_EQ(replay.hw_flops, machine.hw_flops().value());
  }
}

TEST(Probe, KernelsRecordAndUnknownNamesThrow) {
  EXPECT_EQ(ncar::machines::probe_kernels(),
            (std::vector<std::string>{"radabs", "hint", "vfft"}));
  const Probe hint = record_probe("hint");
  EXPECT_EQ(hint.kernel, "hint");
  EXPECT_GT(hint.ops.size(), 10u);
  const Probe vfft = record_probe("vfft");
  EXPECT_EQ(vfft.ops.size(), 8u);
  EXPECT_EQ(vfft.total_charges(), 8.0 * 128.0);
  EXPECT_THROW(record_probe("linpack"), ncar::config_error);
}

TEST(Probe, ReplayCostCacheCountsArePinned) {
  // A replay's counts are its price table's: each bitwise-distinct
  // descriptor is priced once (a miss) and every recorded charge is served
  // from the table (the rest are hits), so hits + misses = charges on any
  // machine. design_sweep's cost_cache row sums these over its points.
  const auto expect_counts = [&](const char* kernel, std::uint64_t hits,
                                 std::uint64_t misses) {
    SCOPED_TRACE(kernel);
    const auto& probe = record_probe(kernel);
    EXPECT_EQ(probe.distinct.size(), misses);
    EXPECT_EQ(probe.ops.size(), hits + misses);
    for (const std::string& name : builtin_names()) {
      SCOPED_TRACE(name);
      const auto replay =
          replay_probe(probe, ncar::machines::spec_for(name));
      EXPECT_EQ(replay.cache_hits, hits);
      EXPECT_EQ(replay.cache_misses, misses);
    }
  };
  expect_counts("radabs", 1066, 23);
  expect_counts("hint", 47, 2);
  expect_counts("vfft", 7, 1);
}

TEST(Probe, EveryOpPointsAtItsDistinctDescriptor) {
  for (const std::string& kernel : ncar::machines::probe_kernels()) {
    SCOPED_TRACE(kernel);
    const auto& probe = record_probe(kernel);
    for (std::size_t s = 0; s < probe.distinct.size(); ++s) {
      EXPECT_EQ(probe.distinct[s].slot, s);
    }
    for (const auto& op : probe.ops) {
      ASSERT_LT(op.slot, probe.distinct.size());
      const auto& d = probe.distinct[op.slot];
      EXPECT_EQ(d.kind, op.kind);
      EXPECT_EQ(d.vec, op.vec);
      EXPECT_EQ(d.scalar, op.scalar);
      EXPECT_EQ(d.f, op.f);
      EXPECT_EQ(d.calls, op.calls);
    }
  }
}

TEST(Probe, RecordedOncePerProcess) {
  for (const std::string& kernel : ncar::machines::probe_kernels()) {
    EXPECT_EQ(&record_probe(kernel), &record_probe(kernel)) << kernel;
  }
}

TEST(Probe, RacingFirstUseGivesIdenticalSweeps) {
  // Two sweeps started together from two host threads race to record each
  // kernel's probe and must still agree bit for bit. ctest runs every test
  // in a process of its own, so there this is the probes' first use.
  for (const std::string& kernel : ncar::machines::probe_kernels()) {
    SCOPED_TRACE(kernel);
    SweepOptions opts;
    opts.kernel = kernel;
    opts.policy = ExecutionPolicy::Sequential;
    SweepReport a, b;
    std::thread ta([&] { a = run_sweep(small_grid(), opts); });
    std::thread tb([&] { b = run_sweep(small_grid(), opts); });
    ta.join();
    tb.join();
    EXPECT_FALSE(a.points.empty());
    expect_same_report(a, b);
  }
}

// ---------------------------------------------------------------------------
// Sweep determinism

TEST(Sweep, SequentialAndThreadedBitIdentical) {
  SweepOptions seq;
  seq.kernel = "radabs";
  seq.policy = ExecutionPolicy::Sequential;
  const SweepReport a = run_sweep(small_grid(), seq);

  ThreadPool pool(8);
  SweepOptions thr;
  thr.kernel = "radabs";
  thr.policy = ExecutionPolicy::Threaded;
  thr.pool = &pool;
  const SweepReport b = run_sweep(small_grid(), thr);

  expect_same_report(a, b);
}

TEST(Sweep, RepeatedRunsByteIdentical) {
  SweepOptions opts;
  opts.kernel = "vfft";
  opts.policy = ExecutionPolicy::Sequential;
  const SweepReport first = run_sweep(small_grid(), opts);
  const SweepReport second = run_sweep(small_grid(), opts);
  EXPECT_FALSE(first.points.empty());
  expect_same_report(first, second);
}

TEST(Sweep, LiveWorkspacesBoundedByHostThreads) {
  SweepOptions seq;
  seq.kernel = "vfft";
  seq.policy = ExecutionPolicy::Sequential;
  const SweepReport a = run_sweep(small_grid(), seq);
  EXPECT_EQ(a.peak_live_workspaces, 1);

  ThreadPool pool(4);
  SweepOptions thr = seq;
  thr.policy = ExecutionPolicy::Threaded;
  thr.pool = &pool;
  const SweepReport b = run_sweep(small_grid(), thr);
  EXPECT_GE(b.peak_live_workspaces, 1);
  EXPECT_LE(b.peak_live_workspaces, pool.thread_count());
}

// ---------------------------------------------------------------------------
// Pinned sweep and replay results

/// bench/design_sweep's default grid: 6 * 5 * 5 * 4 * 2 = 1200 points.
Grid design_sweep_grid() {
  return Grid(sx4_base(), {
                              {"pipes_per_group", {1, 2, 4, 8, 16, 32}},
                              {"vector_length", {32, 64, 128, 256, 512}},
                              {"port_bytes_per_clock", {16, 32, 64, 128, 256}},
                              {"memory_banks", {256, 512, 1024, 2048}},
                              {"clock_ns", {9.2, 8}},
                          });
}

/// FNV-1a over every point's verdict, bit for bit.
std::uint64_t points_hash(const SweepReport& rep) {
  std::vector<double> v;
  v.reserve(rep.points.size() * 6);
  for (const auto& p : rep.points) {
    v.push_back(p.valid ? 1.0 : 0.0);
    v.push_back(p.seconds);
    v.push_back(p.hw_mflops);
    v.push_back(p.memory_gain);
    v.push_back(p.compute_gain);
    v.push_back(p.memory_bound ? 1.0 : 0.0);
  }
  return ncar::test::fnv1a(v);
}

/// FNV-1a over replay seconds and hardware flops on every catalog machine.
std::uint64_t catalog_replay_hash(const std::string& kernel) {
  std::vector<double> v;
  for (const std::string& name : builtin_names()) {
    const auto r = replay_probe(record_probe(kernel),
                                ncar::machines::spec_for(name));
    v.push_back(r.seconds);
    v.push_back(r.hw_flops);
  }
  return ncar::test::fnv1a(v);
}

// Every double a sweep produces, pinned. Pricing may be restructured (cost
// caches, price tables, probe memoisation) but must add the same products
// in the same order, so none of these hashes may move.
TEST(SweepPinned, DesignSweepDefaultGridPoints) {
  ThreadPool pool(4);
  SweepOptions opts;
  opts.policy = ExecutionPolicy::Threaded;
  opts.pool = &pool;
  const Grid grid = design_sweep_grid();
  ASSERT_EQ(grid.size(), 1200u);
  const auto expect_hash = [&](const char* kernel, std::uint64_t hash) {
    SCOPED_TRACE(kernel);
    opts.kernel = kernel;
    EXPECT_EQ(points_hash(run_sweep(grid, opts)), hash);
  };
  expect_hash("radabs", 0x0dcf17775bb6c025ull);
  expect_hash("hint", 0xa2cb7e52d80c49d5ull);
  expect_hash("vfft", 0xf7b91508ca53a1bdull);
}

TEST(SweepPinned, CatalogReplays) {
  EXPECT_EQ(catalog_replay_hash("radabs"), 0xd9867163e6a1243full);
  EXPECT_EQ(catalog_replay_hash("hint"), 0xcccf4c0754967875ull);
  EXPECT_EQ(catalog_replay_hash("vfft"), 0x169e929f22b321c4ull);
}

// ---------------------------------------------------------------------------
// Sweep semantics

TEST(Sweep, InvalidCombinationsKeepTheGridRectangular) {
  SweepOptions opts;
  opts.kernel = "vfft";
  opts.policy = ExecutionPolicy::Sequential;
  const SweepReport rep = run_sweep(small_grid(), opts);
  ASSERT_EQ(rep.points.size(), 24u);
  // pipes=3 divides neither VL 64 nor 256: a third of the grid is invalid,
  // present, and carries the lowering error.
  EXPECT_EQ(rep.valid_count(), 16u);
  for (const auto& p : rep.points) {
    if (p.valid) {
      EXPECT_GT(p.seconds, 0.0);
      EXPECT_TRUE(p.error.empty());
    } else {
      EXPECT_NE(p.error.find("vector register length"), std::string::npos)
          << p.error;
    }
  }
}

TEST(Sweep, ClassificationIsAPureFunctionOfTheGains) {
  SweepOptions opts;
  opts.kernel = "radabs";
  opts.policy = ExecutionPolicy::Sequential;
  const SweepReport rep = run_sweep(small_grid(), opts);
  for (const auto& p : rep.points) {
    if (!p.valid) continue;
    EXPECT_GT(p.memory_gain, 0.0);
    EXPECT_GT(p.compute_gain, 0.0);
    EXPECT_EQ(p.memory_bound, p.memory_gain >= p.compute_gain);
  }
  EXPECT_EQ(rep.valid_count(),
            rep.memory_bound_count() +
                (rep.valid_count() - rep.memory_bound_count()));
}

TEST(Sweep, FlipEdgesConnectDisagreeingNeighbors) {
  const Grid grid = small_grid();
  SweepOptions opts;
  opts.kernel = "radabs";
  opts.policy = ExecutionPolicy::Sequential;
  const SweepReport rep = run_sweep(grid, opts);
  // A 16-pipe SX-4 behind a weak 32-byte port is memory-bound while the
  // 8-pipe one is compute-bound: the pipes and port axes must both flip
  // somewhere on this grid.
  EXPECT_FALSE(rep.flips.empty());
  for (const auto& f : rep.flips) {
    ASSERT_LT(f.from, rep.points.size());
    ASSERT_LT(f.to, rep.points.size());
    EXPECT_TRUE(rep.points[f.from].valid);
    EXPECT_TRUE(rep.points[f.to].valid);
    EXPECT_NE(rep.points[f.from].memory_bound, rep.points[f.to].memory_bound);
    // The edge really is a neighbor relation along the named axis.
    bool named_axis_found = false;
    for (std::size_t a = 0; a < grid.axes().size(); ++a) {
      if (grid.axes()[a].key == f.axis) {
        named_axis_found = true;
        EXPECT_EQ(grid.neighbor(f.from, a), f.to);
      }
    }
    EXPECT_TRUE(named_axis_found) << f.axis;
  }
}

TEST(Sweep, FastestPointBeatsEveryValidPoint) {
  SweepOptions opts;
  opts.kernel = "radabs";
  opts.policy = ExecutionPolicy::Sequential;
  const SweepReport rep = run_sweep(small_grid(), opts);
  const auto* best = rep.fastest();
  ASSERT_NE(best, nullptr);
  for (const auto& p : rep.points) {
    if (p.valid) {
      EXPECT_LE(best->seconds, p.seconds);
    }
  }
}

}  // namespace
