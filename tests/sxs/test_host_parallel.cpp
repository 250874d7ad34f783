// The parallel-region contract: under either execution policy every rank
// body runs inline, in rank order, on the calling thread, so threaded and
// sequential nodes produce bit-identical simulated results; and a throwing
// rank body stops the region and leaves the node in a clean state
// (contention restored, clock unmoved, later regions unaffected).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/knobs.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

namespace {

using ncar::Rng;
using ncar::ThreadPool;
using ncar::sxs::Cpu;
using ncar::sxs::ExecutionPolicy;
using ncar::sxs::Machine;
using ncar::sxs::MachineConfig;
using ncar::sxs::Node;

// Charge a randomized mix of vector / scalar / intrinsic / raw operations.
// Seeded per (region, rank), so the mix depends on nothing but its rank.
void charge_random_mix(Cpu& cpu, std::uint64_t seed) {
  Rng rng(seed);
  const int ops = 3 + static_cast<int>(rng.next_below(6));
  for (int k = 0; k < ops; ++k) {
    switch (rng.next_below(4)) {
      case 0: {
        ncar::sxs::VectorOp op;
        op.n = 1 + static_cast<long>(rng.next_below(4096));
        op.flops_per_elem = 1.0 + rng.next_double() * 8.0;
        op.div_per_elem = rng.next_double() < 0.3 ? 1.0 : 0.0;
        op.load_words = 1.0 + rng.next_double() * 4.0;
        op.store_words = rng.next_double() * 2.0;
        op.gather_words = rng.next_double() < 0.25 ? 1.0 : 0.0;
        op.load_stride = 1 + static_cast<long>(rng.next_below(8));
        op.pipe_groups = 1 + static_cast<int>(rng.next_below(2));
        cpu.vec(op, 1 + static_cast<long>(rng.next_below(5)));
        break;
      }
      case 1: {
        ncar::sxs::ScalarOp op;
        op.iters = 1 + static_cast<long>(rng.next_below(2000));
        op.flops_per_iter = 1.0 + rng.next_double() * 4.0;
        op.mem_words_per_iter = 1.0 + rng.next_double() * 3.0;
        op.other_ops_per_iter = rng.next_double() * 6.0;
        op.working_set_bytes = rng.next_double() * 1e5;
        op.reuse_fraction = rng.next_double();
        cpu.scalar(op);
        break;
      }
      case 2: {
        const auto f = static_cast<ncar::sxs::Intrinsic>(rng.next_below(6));
        cpu.intrinsic(f, 1 + static_cast<long>(rng.next_below(1024)), 1.0,
                      1.0, 1.0, 1 + static_cast<long>(rng.next_below(3)));
        break;
      }
      default:
        cpu.charge_cycles(ncar::Cycles(rng.next_double() * 1e4),
                          ncar::trace::Category::Other);
        break;
    }
  }
}

// Every observable counter of a Cpu, for exact comparison.
void expect_cpus_bit_identical(const Node& a, const Node& b) {
  ASSERT_EQ(a.cpu_count(), b.cpu_count());
  for (int i = 0; i < a.cpu_count(); ++i) {
    const Cpu& ca = a.cpu(i);
    const Cpu& cb = b.cpu(i);
    EXPECT_EQ(ca.cycles(), cb.cycles()) << "cpu " << i;
    EXPECT_EQ(ca.vector_cycles(), cb.vector_cycles()) << "cpu " << i;
    EXPECT_EQ(ca.scalar_cycles(), cb.scalar_cycles()) << "cpu " << i;
    EXPECT_EQ(ca.intrinsic_cycles(), cb.intrinsic_cycles()) << "cpu " << i;
    EXPECT_EQ(ca.hw_flops(), cb.hw_flops()) << "cpu " << i;
    EXPECT_EQ(ca.equiv_flops(), cb.equiv_flops()) << "cpu " << i;
  }
}

class HostParallelDeterminism : public ::testing::TestWithParam<int> {
protected:
  MachineConfig cfg = MachineConfig::sx4_benchmarked();
};

TEST_P(HostParallelDeterminism, RandomMixesBitIdenticalAcrossPolicies) {
  const int ncpu = GetParam();
  // A pool with real workers, even on single-core hosts (where the global
  // pool has none): regions must not hand their ranks to it.
  ThreadPool pool(4);
  Node seq(cfg, ExecutionPolicy::Sequential);
  Node thr(cfg, ExecutionPolicy::Threaded);
  thr.set_thread_pool(&pool);

  for (int rep = 0; rep < 100; ++rep) {
    const std::uint64_t region_seed =
        0x5eed0000ull + 131ull * static_cast<std::uint64_t>(rep) +
        static_cast<std::uint64_t>(ncpu);
    const auto body = [&](int rank, Cpu& cpu) {
      charge_random_mix(cpu, region_seed * 33ull +
                                 static_cast<std::uint64_t>(rank));
    };
    const double ts = seq.parallel(ncpu, body);
    const double tt = thr.parallel(ncpu, body);
    ASSERT_EQ(ts, tt) << "ncpu=" << ncpu << " rep=" << rep;
    ASSERT_EQ(seq.elapsed_seconds(), thr.elapsed_seconds());
  }
  expect_cpus_bit_identical(seq, thr);
}

INSTANTIATE_TEST_SUITE_P(Widths, HostParallelDeterminism,
                         ::testing::Values(1, 2, 8, 32));

TEST(HostParallel, ExternalLoadBitIdenticalAcrossPolicies) {
  const auto cfg = MachineConfig::sx4_benchmarked();
  ThreadPool pool(4);
  Node seq(cfg, ExecutionPolicy::Sequential);
  Node thr(cfg, ExecutionPolicy::Threaded);
  thr.set_thread_pool(&pool);
  seq.set_external_active_cpus(12);
  thr.set_external_active_cpus(12);
  const auto body = [](int rank, Cpu& cpu) {
    charge_random_mix(cpu, 7777ull + static_cast<std::uint64_t>(rank));
  };
  EXPECT_EQ(seq.parallel(8, body), thr.parallel(8, body));
  expect_cpus_bit_identical(seq, thr);
}

TEST(HostParallel, ResetRestoresPristineStateUnderThreadedPolicy) {
  ThreadPool pool(4);
  Node node(MachineConfig::sx4_benchmarked(), ExecutionPolicy::Threaded);
  node.set_thread_pool(&pool);
  node.parallel(16, [](int rank, Cpu& cpu) {
    charge_random_mix(cpu, static_cast<std::uint64_t>(rank));
  });
  node.set_external_active_cpus(4);
  node.reset();
  EXPECT_EQ(node.elapsed_seconds(), 0.0);
  EXPECT_EQ(node.external_active_cpus(), 0);
  for (int i = 0; i < node.cpu_count(); ++i) {
    EXPECT_EQ(node.cpu(i).cycles(), 0.0);
    EXPECT_EQ(node.cpu(i).contention(), 1.0);
  }
}

// --- exception safety (the set_contention regression) -----------------------

class ThrowingPolicy : public ::testing::TestWithParam<ExecutionPolicy> {};

TEST_P(ThrowingPolicy, ThrowingBodyDoesNotPoisonLaterRegions) {
  const auto cfg = MachineConfig::sx4_benchmarked();
  ThreadPool pool(4);
  Node node(cfg, GetParam());
  node.set_thread_pool(&pool);

  EXPECT_THROW(node.parallel(8,
                             [](int rank, Cpu& cpu) {
                               charge_random_mix(
                                   cpu, static_cast<std::uint64_t>(rank));
                               if (rank == 2) {
                                 throw std::runtime_error("rank body failed");
                               }
                             }),
               std::runtime_error);

  // The guard must have restored every CPU's contention factor...
  for (int i = 0; i < node.cpu_count(); ++i) {
    EXPECT_EQ(node.cpu(i).contention(), 1.0) << "cpu " << i;
  }
  // ...and the node clock must not have advanced for the failed region.
  EXPECT_EQ(node.elapsed_seconds(), 0.0);

  // Subsequent regions must time exactly as on a never-failed node.
  Node fresh(cfg, ExecutionPolicy::Sequential);
  const auto body = [](int rank, Cpu& cpu) {
    charge_random_mix(cpu, 99ull + static_cast<std::uint64_t>(rank));
  };
  EXPECT_EQ(node.parallel(4, body), fresh.parallel(4, body));
}

TEST_P(ThrowingPolicy, ThrowingSerialBodyRestoresContention) {
  const auto cfg = MachineConfig::sx4_benchmarked();
  Node node(cfg, GetParam());
  node.set_external_active_cpus(8);  // so serial contention is > 1
  EXPECT_THROW(node.serial([](Cpu&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(node.cpu(0).contention(), 1.0);
  EXPECT_EQ(node.elapsed_seconds(), 0.0);
}

TEST_P(ThrowingPolicy, LowestRankExceptionPropagates) {
  Node node(MachineConfig::sx4_benchmarked(), GetParam());
  ThreadPool pool(4);
  node.set_thread_pool(&pool);
  try {
    node.parallel(16, [](int rank, Cpu&) {
      if (rank == 5 || rank == 11) {
        throw std::runtime_error("rank " + std::to_string(rank));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 5");
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ThrowingPolicy,
                         ::testing::Values(ExecutionPolicy::Sequential,
                                           ExecutionPolicy::Threaded));

// --- the inline region contract ---------------------------------------------

TEST(HostParallel, RanksRunInlineInRankOrderUnderThreadedPolicy) {
  ThreadPool pool(4);
  Node node(MachineConfig::sx4_benchmarked(), ExecutionPolicy::Threaded);
  node.set_thread_pool(&pool);
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  node.parallel(32, [&](int rank, Cpu& cpu) {
    order.push_back(rank);
    threads.push_back(std::this_thread::get_id());
    charge_random_mix(cpu, static_cast<std::uint64_t>(rank));
  });
  ASSERT_EQ(order.size(), 32u);
  for (int rank = 0; rank < 32; ++rank) {
    EXPECT_EQ(order[static_cast<std::size_t>(rank)], rank);
    EXPECT_EQ(threads[static_cast<std::size_t>(rank)],
              std::this_thread::get_id())
        << "rank " << rank;
  }
}

TEST(HostParallel, ThrowingRankStopsTheRegionUnderThreadedPolicy) {
  ThreadPool pool(4);
  Node node(MachineConfig::sx4_benchmarked(), ExecutionPolicy::Threaded);
  node.set_thread_pool(&pool);
  node.set_external_active_cpus(4);  // so region contention is > 1
  std::vector<int> ran;
  try {
    node.parallel(16, [&](int rank, Cpu& cpu) {
      ran.push_back(rank);
      charge_random_mix(cpu, static_cast<std::uint64_t>(rank));
      if (rank == 5 || rank == 11) {
        throw std::runtime_error("rank " + std::to_string(rank));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 5");
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  for (int i = 0; i < node.cpu_count(); ++i) {
    EXPECT_EQ(node.cpu(i).contention(), 1.0) << "cpu " << i;
  }
  EXPECT_EQ(node.elapsed_seconds(), 0.0);
}

TEST(HostParallel, MachineVisitsNodesInOrderOnTheCallingThread) {
  ThreadPool pool(4);
  Machine machine(MachineConfig::sx4_multinode(4), ExecutionPolicy::Threaded);
  machine.set_thread_pool(&pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<int, int>> order;
  bool all_inline = true;
  machine.parallel(4, 8, [&](int n, int rank, Cpu& cpu) {
    order.emplace_back(n, rank);
    all_inline &= std::this_thread::get_id() == caller;
    charge_random_mix(cpu, 31ull * static_cast<std::uint64_t>(n) +
                               static_cast<std::uint64_t>(rank));
  });
  std::vector<std::pair<int, int>> want;
  for (int n = 0; n < 4; ++n) {
    for (int rank = 0; rank < 8; ++rank) want.emplace_back(n, rank);
  }
  EXPECT_EQ(order, want);
  EXPECT_TRUE(all_inline);
}

// --- SX4NCAR_HOST_THREADS parsing -------------------------------------------

TEST(ExecutionPolicyEnv, PolicyParsing) {
  // The default policy follows the once-parsed thread count.
  EXPECT_EQ(ncar::sxs::default_execution_policy(),
            ThreadPool::configured_host_threads() > 1
                ? ExecutionPolicy::Threaded
                : ExecutionPolicy::Sequential);
  // Thread counts parse through the knob table; policy names are not
  // thread counts, so it rejects them.
  const auto threads = [](const std::string& value) {
    const std::string entry = "SX4NCAR_HOST_THREADS=" + value;
    const char* env[] = {entry.c_str(), nullptr};
    return ncar::knobs::Settings(env).int_range("SX4NCAR_HOST_THREADS", -1);
  };
  EXPECT_EQ(threads(""), -1);
  for (const char* n : {"0", "1", "2", "64"}) {
    EXPECT_EQ(threads(n), std::stoi(n)) << n;
  }
  for (const char* bad : {"seq", "sequential", "threaded", "garbage"}) {
    EXPECT_THROW(threads(bad), ncar::config_error) << bad;
  }
}

TEST(ExecutionPolicyEnv, Names) {
  EXPECT_STREQ(ncar::sxs::to_string(ExecutionPolicy::Sequential),
               "sequential");
  EXPECT_STREQ(ncar::sxs::to_string(ExecutionPolicy::Threaded), "threaded");
  EXPECT_FALSE(ncar::sxs::host_execution_summary().empty());
}

}  // namespace
