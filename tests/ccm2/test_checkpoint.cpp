// Checkpoint/restart (paper section 2.6.2): "NQS batch jobs can be
// checkpointed... No special programming is required." The library-level
// guarantee under test: restoring a checkpoint and continuing produces a
// bit-identical trajectory.

#include <gtest/gtest.h>

#include "ccm2/model.hpp"
#include "common/error.hpp"
#include "ocean/mom.hpp"
#include "sxs/machine_config.hpp"

namespace {

using namespace ncar;

ccm2::Ccm2Config small_ccm2() {
  ccm2::Ccm2Config c;
  c.res.name = "T21-test";
  c.res.truncation = 21;
  c.res.nlat = 32;
  c.res.nlon = 64;
  c.res.nlev = 4;
  c.res.dt_seconds = 1800.0;
  c.active_levels = 2;
  return c;
}

TEST(Ccm2Checkpoint, RestartContinuationIsBitIdentical) {
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ccm2::Ccm2 model(small_ccm2(), node);
  for (int s = 0; s < 10; ++s) model.step(4);
  const auto snap = model.checkpoint();
  for (int s = 0; s < 5; ++s) model.step(4);
  const double want = model.checksum();
  const long want_steps = model.steps_taken();

  model.restore(snap);
  EXPECT_EQ(model.steps_taken(), 10);
  for (int s = 0; s < 5; ++s) model.step(4);
  EXPECT_DOUBLE_EQ(model.checksum(), want);
  EXPECT_EQ(model.steps_taken(), want_steps);
}

TEST(Ccm2Checkpoint, RestoreIntoFreshModelMatches) {
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ccm2::Ccm2 a(small_ccm2(), node);
  for (int s = 0; s < 7; ++s) a.step(2);
  const auto snap = a.checkpoint();

  ccm2::Ccm2 b(small_ccm2(), node);
  b.restore(snap);
  EXPECT_DOUBLE_EQ(a.checksum(), b.checksum());
  a.step(2);
  b.step(2);
  EXPECT_DOUBLE_EQ(a.checksum(), b.checksum());
}

TEST(Ccm2Checkpoint, MismatchedConfigurationRejected) {
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ccm2::Ccm2 model(small_ccm2(), node);
  auto snap = model.checkpoint();
  snap.pop_back();
  EXPECT_THROW(model.restore(snap), ncar::precondition_error);
}

TEST(Ccm2Checkpoint, CheckpointBytesCoverFullState) {
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ccm2::Ccm2Config c;
  c.res = ccm2::t42l18();
  ccm2::Ccm2 model(c, node);
  // An 18-level T42 checkpoint: a few MB (spectral + grid fields).
  EXPECT_GT(model.checkpoint_bytes(), 2e6);
  EXPECT_LT(model.checkpoint_bytes(), 500e6);
}

TEST(MomCheckpoint, RestartContinuationIsBitIdentical) {
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 8; ++s) mom.step(2);
  const auto snap = mom.checkpoint();
  for (int s = 0; s < 4; ++s) mom.step(2);
  const double want = mom.checksum();

  mom.restore(snap);
  for (int s = 0; s < 4; ++s) mom.step(2);
  EXPECT_DOUBLE_EQ(mom.checksum(), want);
}

TEST(MomCheckpoint, SizeMatchesDeclaredBytes) {
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  const auto snap = mom.checkpoint();
  EXPECT_DOUBLE_EQ(mom.checkpoint_bytes(), 8.0 * snap.size());
}

TEST(MomCheckpoint, MismatchedSizeRejected) {
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked());
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  auto snap = mom.checkpoint();
  snap.push_back(0.0);
  EXPECT_THROW(mom.restore(snap), ncar::precondition_error);
}

}  // namespace
