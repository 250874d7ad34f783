#include "sxs/node.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sxs/machine_config.hpp"

namespace {

using ncar::sxs::Cpu;
using ncar::sxs::MachineConfig;
using ncar::sxs::Node;
using ncar::sxs::VectorOp;
using ncar::trace::Category;

VectorOp work(long n) {
  VectorOp op;
  op.n = n;
  op.flops_per_elem = 2;
  op.load_words = 2;
  op.store_words = 1;
  return op;
}

class NodeTest : public ::testing::Test {
protected:
  MachineConfig cfg = MachineConfig::sx4_benchmarked();
  Node node{cfg};
};

TEST_F(NodeTest, HasConfiguredCpuCount) { EXPECT_EQ(node.cpu_count(), 32); }

TEST_F(NodeTest, SerialRegionAdvancesClockByCpuTime) {
  const double t = node.serial([&](Cpu& c) { c.vec(work(100000)); });
  EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(node.elapsed_seconds(), t);
}

TEST_F(NodeTest, ParallelRegionTakesMaxOverCpus) {
  // Rank 0 does 4x the work of everyone else; region time tracks rank 0.
  const double t = node.parallel(4, [&](int rank, Cpu& c) {
    c.vec(work(rank == 0 ? 400000 : 100000));
  });
  Node solo{cfg};
  const double t0 = solo.parallel(
      1, [&](int, Cpu& c) { c.vec(work(400000)); });
  EXPECT_GT(t, t0 * 0.99);        // at least the big rank
  EXPECT_LT(t, t0 * 1.2);         // but not the sum of all ranks
}

TEST_F(NodeTest, PerfectlyBalancedWorkSpeedsUp) {
  const long n = 1 << 22;
  Node solo{cfg};
  const double t1 = solo.parallel(1, [&](int, Cpu& c) { c.vec(work(n)); });
  const double t8 =
      node.parallel(8, [&](int, Cpu& c) { c.vec(work(n / 8)); });
  const double speedup = t1 / t8;
  EXPECT_GT(speedup, 6.0);
  EXPECT_LT(speedup, 8.0);  // barrier + startup keep it below ideal
}

TEST_F(NodeTest, BarrierCostGrowsWithWidth) {
  EXPECT_DOUBLE_EQ(node.barrier_seconds(1), 0.0);
  EXPECT_GT(node.barrier_seconds(2), 0.0);
  EXPECT_GT(node.barrier_seconds(32), node.barrier_seconds(2));
}

TEST_F(NodeTest, ContentionFactorGrowsWithActiveCpus) {
  EXPECT_DOUBLE_EQ(node.contention_factor(1), 1.0);
  EXPECT_GT(node.contention_factor(32), node.contention_factor(4));
  // The scale is small: tuned for the 1.89% ensemble degradation.
  EXPECT_LT(node.contention_factor(32), 1.05);
}

TEST_F(NodeTest, ExternalLoadInflatesRegionTime) {
  const long n = 1 << 20;
  const double quiet = node.parallel(4, [&](int, Cpu& c) { c.vec(work(n)); });
  node.set_external_active_cpus(28);
  const double loaded = node.parallel(4, [&](int, Cpu& c) { c.vec(work(n)); });
  EXPECT_GT(loaded, quiet);
  EXPECT_LT(loaded / quiet, 1.05);  // degradation is percent-level
}

TEST_F(NodeTest, ParallelWidthBeyondNodeThrows) {
  EXPECT_THROW(node.parallel(33, [](int, Cpu&) {}), ncar::precondition_error);
  EXPECT_THROW(node.parallel(0, [](int, Cpu&) {}), ncar::precondition_error);
}

TEST_F(NodeTest, AdvanceAddsIdleTime) {
  node.advance_seconds(ncar::Seconds(1.5), Category::Idle);
  EXPECT_DOUBLE_EQ(node.elapsed_seconds(), 1.5);
  EXPECT_THROW(node.advance_seconds(ncar::Seconds(-1), Category::Idle),
               ncar::precondition_error);
}

TEST_F(NodeTest, ResetRestoresPristineState) {
  node.parallel(2, [&](int, Cpu& c) { c.vec(work(1000)); });
  node.set_external_active_cpus(10);
  node.reset();
  EXPECT_DOUBLE_EQ(node.elapsed_seconds(), 0.0);
  EXPECT_EQ(node.external_active_cpus(), 0);
  EXPECT_DOUBLE_EQ(node.cpu(0).cycles(), 0.0);
}

// Parameterised scalability property: balanced work never slows down with
// more CPUs, and never exceeds ideal speedup.
class WidthParam : public ::testing::TestWithParam<int> {};

TEST_P(WidthParam, SpeedupBoundedByIdeal) {
  const int p = GetParam();
  const long n = 1 << 22;
  const auto cfg = MachineConfig::sx4_benchmarked();
  Node node{cfg};
  const double t1 = node.parallel(1, [&](int, Cpu& c) { c.vec(work(n)); });
  Node nodep{cfg};
  const double tp =
      nodep.parallel(p, [&](int, Cpu& c) { c.vec(work(n / p)); });
  const double speedup = t1 / tp;
  EXPECT_LE(speedup, p * 1.001);
  EXPECT_GT(speedup, p * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthParam,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
