// The per-class cycle breakdown on Cpu (vector / scalar / intrinsic /
// other) must partition the total.

#include <gtest/gtest.h>

#include "machines/comparator.hpp"
#include "radabs/radabs.hpp"
#include "sxs/cpu.hpp"
#include "sxs/machine_config.hpp"

namespace {

using namespace ncar;
using sxs::Cpu;
using sxs::Intrinsic;
using sxs::MachineConfig;

class BreakdownTest : public ::testing::Test {
protected:
  MachineConfig cfg = MachineConfig::sx4_benchmarked();
  Cpu cpu{cfg};
};

TEST_F(BreakdownTest, ClassesPartitionTotal) {
  sxs::VectorOp v;
  v.n = 1000;
  v.flops_per_elem = 2;
  v.load_words = 2;
  cpu.vec(v);
  sxs::ScalarOp s;
  s.iters = 500;
  s.flops_per_iter = 3;
  s.mem_words_per_iter = 2;
  cpu.scalar(s);
  cpu.intrinsic(Intrinsic::Exp, 200);
  cpu.charge_cycles(ncar::Cycles(123.0), trace::Category::Other);

  EXPECT_GT(cpu.vector_cycles(), 0.0);
  EXPECT_GT(cpu.scalar_cycles(), 0.0);
  EXPECT_GT(cpu.intrinsic_cycles(), 0.0);
  EXPECT_NEAR(cpu.other_cycles(), 123.0, 1e-9);
  EXPECT_NEAR(cpu.vector_cycles() + cpu.scalar_cycles() +
                  cpu.intrinsic_cycles() + cpu.other_cycles(),
              cpu.cycles(), 1e-9);
}

TEST_F(BreakdownTest, ScalarIntrinsicCountsAsIntrinsic) {
  cpu.scalar_intrinsic(Intrinsic::Log, 100);
  EXPECT_GT(cpu.intrinsic_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.scalar_cycles(), 0.0);
}

TEST_F(BreakdownTest, ResetClearsBreakdown) {
  cpu.intrinsic(Intrinsic::Sin, 100);
  cpu.reset();
  EXPECT_DOUBLE_EQ(cpu.vector_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.intrinsic_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.other_cycles(), 0.0);
}

TEST(BreakdownRadabs, IntrinsicsDominateRadabs) {
  // Paper section 4.4: "Much of the time in RADABS is spent in intrinsic
  // function calls (EXP, LOG, PWR, SIN, and SQRT)."
  machines::Comparator sx4(machines::Comparator::nec_sx4_single());
  radabs::run_radabs_standard(sx4);
  EXPECT_GT(sx4.intrinsic_time_fraction(), 0.4);
  EXPECT_LT(sx4.intrinsic_time_fraction(), 0.95);
}

TEST(BreakdownRadabs, FractionIsZeroBeforeAnyWork) {
  machines::Comparator sx4(machines::Comparator::nec_sx4_single());
  EXPECT_DOUBLE_EQ(sx4.intrinsic_time_fraction(), 0.0);
}

}  // namespace
