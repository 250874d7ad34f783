#include "sxs/ixs.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sxs/machine.hpp"
#include "sxs/machine_config.hpp"

namespace {

using ncar::sxs::Ixs;
using ncar::sxs::Machine;
using ncar::sxs::MachineConfig;
using ncar::trace::Category;

class IxsTest : public ::testing::Test {
protected:
  MachineConfig cfg = MachineConfig::sx4_multinode(4);
  Ixs ixs{cfg};
};

TEST_F(IxsTest, BisectionBandwidthIs128GBps) {
  // Paper section 2.5: 128 GB/s bisection for a full 16-node system.
  EXPECT_NEAR(ixs.bisection_bytes_per_s().value(), 128e9, 1e-3);
}

TEST_F(IxsTest, TransferRateApproaches8GBps) {
  const ncar::Bytes bytes(8e9);
  const ncar::Seconds t = ixs.transfer_seconds(bytes);
  EXPECT_NEAR((bytes / t).value(), 8e9, 0.1e9);
}

TEST_F(IxsTest, SmallTransferDominatedByLatency) {
  const double t = ixs.transfer_seconds(ncar::Bytes(64)).value();
  EXPECT_GT(t, cfg.ixs_latency_s);
  EXPECT_LT(t, cfg.ixs_latency_s * 1.01);
}

TEST_F(IxsTest, AllToAllRespectsChannelLimitAtSmallNodeCounts) {
  // 4 nodes * 8 GB/s = 32 GB/s aggregate < 128 GB/s bisection:
  // the per-node channel is the binding constraint.
  const double per_node = 1e9;
  const double t = ixs.all_to_all_seconds(4, ncar::Bytes(per_node)).value();
  EXPECT_NEAR(t, cfg.ixs_latency_s + per_node / 8e9, 1e-6);
}

TEST_F(IxsTest, AllToAllSingleNodeIsFree) {
  EXPECT_DOUBLE_EQ(ixs.all_to_all_seconds(1, ncar::Bytes(1e9)).value(), 0.0);
}

TEST_F(IxsTest, GlobalBarrierGrowsWithNodes) {
  EXPECT_DOUBLE_EQ(ixs.global_barrier_seconds(1).value(), 0.0);
  EXPECT_GT(ixs.global_barrier_seconds(16).value(),
            ixs.global_barrier_seconds(2).value());
}

TEST_F(IxsTest, InvalidNodeCountsThrow) {
  EXPECT_THROW(ixs.all_to_all_seconds(0, ncar::Bytes(1.0)),
               ncar::precondition_error);
  EXPECT_THROW(ixs.all_to_all_seconds(17, ncar::Bytes(1.0)),
               ncar::precondition_error);
  EXPECT_THROW(ixs.transfer_seconds(ncar::Bytes(-1.0)),
               ncar::precondition_error);
}

TEST(MachineTest, MultiNodeMachineHasIndependentNodes) {
  Machine m(MachineConfig::sx4_multinode(2));
  EXPECT_EQ(m.node_count(), 2);
  m.node(0).advance_seconds(ncar::Seconds(2.0), Category::IxsTransfer);
  EXPECT_DOUBLE_EQ(m.node(1).elapsed_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(m.elapsed_seconds(), 2.0);  // max over nodes
}

TEST(MachineTest, XmuBandwidthIs16GBpsAt8ns) {
  Machine m(MachineConfig::sx4_product());
  // Paper section 2.3: 16 GB/s XMU bandwidth per 32-CPU node.
  const double t = m.xmu_transfer_seconds(ncar::Bytes(16e9)).value();
  EXPECT_NEAR(t, 1.0, 1e-9);
}

TEST(MachineTest, IopChannelIs1Point6GBps) {
  Machine m(MachineConfig::sx4_product());
  // Paper section 2.4: each IOP has 1.6 GB/s of bandwidth.
  EXPECT_NEAR(m.iop_transfer_seconds(ncar::Bytes(1.6e9)).value(), 1.0, 1e-9);
}

TEST(MachineTest, ResetClearsAllNodes) {
  Machine m(MachineConfig::sx4_multinode(2));
  m.node(0).advance_seconds(ncar::Seconds(1.0), Category::IxsTransfer);
  m.node(1).advance_seconds(ncar::Seconds(2.0), Category::IxsTransfer);
  m.reset();
  EXPECT_DOUBLE_EQ(m.elapsed_seconds(), 0.0);
}

TEST(MachineTest, OutOfRangeNodeThrows) {
  Machine m(MachineConfig::sx4_product());
  EXPECT_THROW(m.node(1), ncar::precondition_error);
  EXPECT_THROW(m.node(-1), ncar::precondition_error);
}

}  // namespace
