// Cross-cutting property tests on the SX-4 model: invariants that must
// hold across machine configurations, not just the benchmarked preset.

#include <gtest/gtest.h>

#include "machines/comparator.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/memory_model.hpp"
#include "sxs/node.hpp"
#include "sxs/vector_unit.hpp"

namespace {

using namespace ncar;
using sxs::MachineConfig;

std::vector<MachineConfig> vector_machine_configs() {
  return {MachineConfig::sx4_benchmarked(), MachineConfig::sx4_product(),
          machines::Comparator::cray_ymp().cfg,
          machines::Comparator::cray_j90().cfg};
}

class ConfigParam : public ::testing::TestWithParam<int> {
protected:
  MachineConfig cfg = vector_machine_configs()[static_cast<std::size_t>(GetParam())];
};

TEST_P(ConfigParam, PeakRateConsistentWithPipes) {
  EXPECT_NEAR(cfg.peak_flops_per_cpu(),
              2.0 * cfg.pipes_per_group * cfg.clock_hz(), 1.0);
}

TEST_P(ConfigParam, VectorRateNeverExceedsPeak) {
  sxs::MemoryModel mem(cfg);
  sxs::VectorUnit vu(cfg, mem);
  for (long n : {1L, 7L, 64L, 255L, 256L, 100000L}) {
    sxs::VectorOp op;
    op.n = n;
    op.flops_per_elem = 2;
    op.pipe_groups = 2;
    op.instructions = 1;
    const double flops_per_s =
        2.0 * n / (vu.costs(op).cycles.value() * cfg.seconds_per_clock());
    EXPECT_LE(flops_per_s, cfg.peak_flops_per_cpu() * 1.0001) << "n=" << n;
  }
}

TEST_P(ConfigParam, MemoryBoundRateNeverExceedsPort) {
  sxs::MemoryModel mem(cfg);
  sxs::VectorUnit vu(cfg, mem);
  sxs::VectorOp op;
  op.n = 1 << 20;
  op.load_words = 1;
  op.store_words = 1;
  op.instructions = 2;
  const double bytes_per_s =
      16.0 * op.n / (vu.costs(op).cycles.value() * cfg.seconds_per_clock());
  EXPECT_LE(bytes_per_s, cfg.port_bandwidth().value() * 1.0001);
}

TEST_P(ConfigParam, StrideFactorsAtLeastOne) {
  sxs::MemoryModel mem(cfg);
  for (long s : {1L, 2L, 3L, 5L, 8L, 17L, 64L, 255L, 256L, 1024L, 4096L}) {
    EXPECT_GE(mem.stride_conflict_factor(s), 1.0) << "stride " << s;
  }
}

TEST_P(ConfigParam, CyclesMonotoneInLength) {
  // Non-decreasing everywhere (tiny vectors sit on an issue-bound plateau),
  // strictly growing once the loop leaves the startup regime.
  sxs::MemoryModel mem(cfg);
  sxs::VectorUnit vu(cfg, mem);
  double prev = -1, first = 0, last = 0;
  for (long n = 1; n <= (1 << 16); n *= 4) {
    sxs::VectorOp op;
    op.n = n;
    op.flops_per_elem = 3;
    op.load_words = 2;
    op.store_words = 1;
    const double c = vu.costs(op).cycles.value();
    EXPECT_GE(c, prev) << "n=" << n;
    if (n == 1) first = c;
    last = c;
    prev = c;
  }
  EXPECT_GT(last, 10.0 * first);
}

// --- descriptor invariants -------------------------------------------------
// Monotonicity the memory system's mechanisms imply, over a grid of loops:
// five lengths (startup-bound to many strips), strides 1 to 4096 on the
// loads alone or on loads and stores, light to heavy load streams with and
// without a gather stream, at every doubling of the bank count from 16 to
// 4096.

double op_cycles(const MachineConfig& cfg, const sxs::VectorOp& op) {
  const sxs::MemoryModel mem(cfg);
  return sxs::VectorUnit(cfg, mem).costs(op).cycles.value();
}

/// Calls `holds(cfg, op)` for every descriptor of the grid on `base` at
/// every bank count, and fails naming the first descriptor it rejects and
/// the number rejected.
template <class Pred>
void expect_on_descriptor_grid(MachineConfig base, Pred holds) {
  long checked = 0, failed = 0;
  for (int banks = 16; banks <= 4096; banks *= 2) {
    base.memory_banks = banks;
    for (const long n : {1L, 100L, 256L, 1000L, 100000L}) {
      for (const long stride : {1L, 2L, 3L, 4L, 7L, 8L, 16L, 17L, 64L, 100L,
                                128L, 255L, 256L, 1024L, 4096L}) {
        for (const bool store_strided : {false, true}) {
          for (const double loads : {1.0, 2.0, 5.0}) {
            for (const double gathers : {0.0, 1.0}) {
              for (const double flops : {1.0, 8.0}) {
                sxs::VectorOp op;
                op.n = n;
                op.flops_per_elem = flops;
                op.load_words = loads;
                op.store_words = 1.0;
                op.gather_words = gathers;
                op.load_stride = stride;
                op.store_stride = store_strided ? stride : 1;
                ++checked;
                if (holds(base, op) || failed++ > 0) continue;
                ADD_FAILURE() << "banks " << banks << ", n " << n
                              << ", stride " << stride << " (stores "
                              << op.store_stride << "), loads " << loads
                              << ", gathers " << gathers << ", flops "
                              << flops;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(failed, 0) << "of " << checked << " descriptors";
}

TEST_P(ConfigParam, DoublingBanksNeverSlowsAnOp) {
  expect_on_descriptor_grid(cfg, [](MachineConfig c, const sxs::VectorOp& op) {
    const double before = op_cycles(c, op);
    c.memory_banks *= 2;
    return op_cycles(c, op) <= before;
  });
}

TEST_P(ConfigParam, UnitStrideNeverSlowerThanStrided) {
  expect_on_descriptor_grid(cfg, [](const MachineConfig& c, sxs::VectorOp op) {
    const double strided = op_cycles(c, op);
    op.load_stride = op.store_stride = 1;
    return op_cycles(c, op) <= strided;
  });
}

TEST_P(ConfigParam, AddedGatherWordNeverCheaper) {
  expect_on_descriptor_grid(cfg, [](const MachineConfig& c, sxs::VectorOp op) {
    const double before = op_cycles(c, op);
    op.gather_words += 1.0;
    return op_cycles(c, op) >= before;
  });
}

INSTANTIATE_TEST_SUITE_P(VectorMachines, ConfigParam,
                         ::testing::Values(0, 1, 2, 3));

// --- node-level invariants ---------------------------------------------------

TEST(NodeProperties, RegionTimeAdditiveAcrossRegions) {
  sxs::Node node(MachineConfig::sx4_benchmarked());
  auto work = [](int, sxs::Cpu& c) {
    sxs::VectorOp op;
    op.n = 10000;
    op.flops_per_elem = 2;
    op.load_words = 2;
    c.vec(op);
  };
  const double t1 = node.parallel(8, work);
  const double t2 = node.parallel(8, work);
  EXPECT_NEAR(node.elapsed_seconds(), t1 + t2, 1e-15);
}

TEST(NodeProperties, ContentionNeverShrinksTime) {
  for (int active : {1, 2, 8, 16, 32}) {
    sxs::Node node(MachineConfig::sx4_benchmarked());
    EXPECT_GE(node.contention_factor(active), 1.0);
    if (active > 1) {
      EXPECT_GT(node.contention_factor(active),
                node.contention_factor(active - 1));
    }
  }
}

TEST(NodeProperties, EightNodesOfFourBehaveLikeTable6) {
  // The ensemble ratio in pure model terms:
  // contention(32) / contention(4) ~ 1.019.
  sxs::Node node(MachineConfig::sx4_benchmarked());
  const double ratio = node.contention_factor(32) / node.contention_factor(4);
  EXPECT_NEAR(ratio, 1.019, 0.002);
}

}  // namespace
