#include "sxs/vector_unit.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/memory_model.hpp"

namespace {

using ncar::sxs::MachineConfig;
using ncar::sxs::MemoryModel;
using ncar::sxs::VectorOp;
using ncar::sxs::VectorUnit;

class VectorUnitTest : public ::testing::Test {
protected:
  MachineConfig cfg = MachineConfig::sx4_product();
  MemoryModel mem{cfg};
  VectorUnit vu{cfg, mem};
};

TEST_F(VectorUnitTest, LongComputeBoundLoopApproachesPeak) {
  // Register-resident FMA loop: 2 flops/element on both pipe groups.
  VectorOp op;
  op.n = 1 << 22;
  op.flops_per_elem = 2;
  op.load_words = 0;
  op.store_words = 0;
  op.pipe_groups = 2;
  op.instructions = 1;
  const double cycles = vu.costs(op).cycles.value();
  const double flops_per_cycle = 2.0 * op.n / cycles;
  // Within 5% of the 16 flops/clock peak once startup is amortised.
  EXPECT_GT(flops_per_cycle, 0.95 * 16.0);
  EXPECT_LE(flops_per_cycle, 16.0);
}

TEST_F(VectorUnitTest, ShortVectorsPayStartup) {
  VectorOp op;
  op.n = 8;
  op.flops_per_elem = 2;
  op.pipe_groups = 2;
  op.instructions = 1;
  const double cycles = vu.costs(op).cycles.value();
  // Startup dominates: far more cycles than the n/16 steady-state work.
  EXPECT_GT(cycles, cfg.vector_startup_clocks);
  EXPECT_LT(2.0 * op.n / cycles, 4.0);
}

TEST_F(VectorUnitTest, EfficiencyGrowsMonotonicallyWithLength) {
  double prev = 0.0;
  for (long n : {16L, 64L, 256L, 1024L, 4096L, 65536L}) {
    VectorOp op;
    op.n = n;
    op.flops_per_elem = 2;
    op.pipe_groups = 2;
    op.instructions = 1;
    const double rate = 2.0 * n / vu.costs(op).cycles.value();
    EXPECT_GT(rate, prev) << "n=" << n;
    prev = rate;
  }
}

TEST_F(VectorUnitTest, MemoryBoundLoopLimitedByPort) {
  // Pure copy: no flops, 1 load + 1 store word per element.
  VectorOp op;
  op.n = 1 << 22;
  op.load_words = 1;
  op.store_words = 1;
  op.instructions = 2;
  const double cycles = vu.costs(op).cycles.value();
  const double words_per_cycle = 2.0 * op.n / cycles;
  EXPECT_NEAR(words_per_cycle, 16.0, 1.0);  // full port width
}

TEST_F(VectorUnitTest, ComputeAndMemoryOverlapAsMax) {
  VectorOp mem_only;
  mem_only.n = 1 << 20;
  mem_only.load_words = 2;
  mem_only.store_words = 1;
  mem_only.instructions = 3;

  VectorOp with_flops = mem_only;
  with_flops.flops_per_elem = 2;  // cheap relative to 3 words of traffic
  with_flops.instructions = 4;

  const double t_mem = vu.costs(mem_only).cycles.value();
  const double t_both = vu.costs(with_flops).cycles.value();
  // Chained arithmetic hides behind the memory streams (within issue cost).
  EXPECT_NEAR(t_both / t_mem, 1.0, 0.05);
}

TEST_F(VectorUnitTest, DividePipesAreSlower) {
  VectorOp add;
  add.n = 1 << 18;
  add.flops_per_elem = 1;
  add.pipe_groups = 1;
  add.instructions = 1;

  VectorOp div;
  div.n = 1 << 18;
  div.div_per_elem = 1;
  div.pipe_groups = 1;
  div.instructions = 1;

  EXPECT_GT(vu.costs(div).cycles, vu.costs(add).cycles);
  EXPECT_NEAR(vu.costs(div).cycles / vu.costs(add).cycles,
              cfg.divide_cycles_per_result,
              0.2);
}

TEST_F(VectorUnitTest, ConcurrentDivideCanExceedNominalPeak) {
  // Paper section 2.1: with add, multiply, and divide all busy the CPU "can
  // exceed its peak rating". Results (flops incl. divides) per cycle > 16.
  VectorOp op;
  op.n = 1 << 20;
  op.flops_per_elem = 2;   // saturate add + multiply
  op.div_per_elem = 0.2;   // divide group under its throughput bound
  op.pipe_groups = 2;
  op.instructions = 1;
  const double cycles = vu.costs(op).cycles.value();
  const double results_per_cycle = (2.0 + 0.2) * op.n / cycles;
  EXPECT_GT(results_per_cycle, 16.0);
}

TEST_F(VectorUnitTest, GatherBoundLoopSlowerThanUnitStride) {
  VectorOp unit;
  unit.n = 1 << 20;
  unit.load_words = 1;
  unit.store_words = 1;
  unit.instructions = 2;

  VectorOp gathered = unit;
  gathered.load_words = 0;
  gathered.gather_words = 1;

  EXPECT_GT(vu.costs(gathered).cycles, vu.costs(unit).cycles);
}

TEST_F(VectorUnitTest, VariantsAreTheLowerOfTheLoopAndTheVariantOp) {
  // costs() skips a variant that cannot be cheaper; what it reports must
  // still be min(cycles, cycles of the variant op), bit for bit.
  int cheaper_unit = 0;
  int cheaper_contiguous = 0;
  for (const long stride : {1L, 2L, 3L, 16L, 512L}) {
    for (const double gather : {0.0, 0.5, 2.0}) {
      for (const double flops : {0.0, 2.0, 40.0}) {
        for (const int instructions : {0, 9}) {
          VectorOp op;
          op.n = 3000;
          op.flops_per_elem = flops;
          op.div_per_elem = flops > 10 ? 1 : 0;
          op.load_words = 2;
          op.store_words = 1;
          op.load_stride = stride;
          op.store_stride = stride == 1 ? 1 : 7;
          op.gather_words = gather;
          op.scatter_words = gather / 2;
          op.instructions = instructions;
          VectorOp unit = op;
          unit.load_stride = 1;
          unit.store_stride = 1;
          VectorOp contiguous = op;
          contiguous.gather_words = 0;
          contiguous.scatter_words = 0;

          const VectorUnit::Costs c = vu.costs(op);
          EXPECT_EQ(c.unit_stride,
                    std::min(c.cycles, vu.costs(unit).cycles));
          EXPECT_EQ(c.contiguous,
                    std::min(c.cycles, vu.costs(contiguous).cycles));
          if (c.unit_stride < c.cycles) ++cheaper_unit;
          if (c.contiguous < c.cycles) ++cheaper_contiguous;
        }
      }
    }
  }
  // Both variants are strictly cheaper somewhere, so both paths ran.
  EXPECT_GT(cheaper_unit, 0);
  EXPECT_GT(cheaper_contiguous, 0);
}

TEST_F(VectorUnitTest, ZeroLengthIsFree) {
  VectorOp op;
  op.n = 0;
  op.flops_per_elem = 10;
  const VectorUnit::Costs c = vu.costs(op);
  EXPECT_DOUBLE_EQ(c.cycles.value(), 0.0);
  EXPECT_DOUBLE_EQ(c.unit_stride.value(), 0.0);
  EXPECT_DOUBLE_EQ(c.contiguous.value(), 0.0);
}

TEST_F(VectorUnitTest, NegativeLengthThrows) {
  VectorOp op;
  op.n = -5;
  EXPECT_THROW(vu.costs(op), ncar::precondition_error);
}

TEST_F(VectorUnitTest, InvalidPipeGroupsThrow) {
  VectorOp op;
  op.n = 10;
  op.flops_per_elem = 1;
  op.pipe_groups = 0;
  EXPECT_THROW(vu.costs(op), ncar::precondition_error);
  op.pipe_groups = 4;
  EXPECT_THROW(vu.costs(op), ncar::precondition_error);
}

class VectorLengthParam : public ::testing::TestWithParam<int> {};

TEST_P(VectorLengthParam, ShorterRegistersLowerShortLoopEfficiency) {
  // Property: for loops shorter than one register, efficiency does not
  // depend on VL; for much longer loops a bigger VL amortises issue costs.
  auto cfg = MachineConfig::sx4_product();
  cfg.vector_length = GetParam();
  MemoryModel mem{cfg};
  VectorUnit vu{cfg, mem};
  VectorOp op;
  op.n = 1 << 16;
  op.flops_per_elem = 2;
  op.pipe_groups = 2;
  op.instructions = 4;
  const double rate = 2.0 * op.n / vu.costs(op).cycles.value();
  EXPECT_GT(rate, 4.0);
  EXPECT_LE(rate, 16.0);
}

INSTANTIATE_TEST_SUITE_P(VectorLengths, VectorLengthParam,
                         ::testing::Values(64, 128, 256, 512));

}  // namespace
