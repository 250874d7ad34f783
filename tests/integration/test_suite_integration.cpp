// Integration tests across modules: the scenarios the paper's benchmark
// campaign actually exercised, stitched end to end.

#include <gtest/gtest.h>

#include "ccm2/model.hpp"
#include "fpt/elefunt.hpp"
#include "fpt/paranoia.hpp"
#include "machines/comparator.hpp"
#include "ocean/mom.hpp"
#include "prodload/scheduler.hpp"
#include "radabs/radabs.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"

namespace {

using namespace ncar;

// The suite's ordering principle (Dongarra et al., paper section 4):
// start simple, end with applications. Verify the dependency chain: the
// arithmetic is sound, the intrinsics are accurate, therefore RADABS's
// numbers are meaningful, therefore CCM2's physics charge is meaningful.
TEST(SuiteIntegration, CorrectnessGatesPerformance) {
  ASSERT_TRUE(fpt::run_paranoia().all_passed());
  for (const auto& r : fpt::run_elefunt_accuracy(2000)) {
    ASSERT_TRUE(r.passed) << sxs::intrinsic_name(r.func);
  }
  machines::Comparator sx4(machines::Comparator::nec_sx4_single());
  const auto radabs = radabs::run_radabs_standard(sx4);
  EXPECT_GT(radabs.equiv_mflops, 0.0);
}

// Checkpoint a MOM run mid-flight, "migrate" it to a fresh node (as NQS
// restart would after a shutdown), and verify the trajectory continues
// identically while the simulated clocks differ per machine.
TEST(SuiteIntegration, MomRestartOnFreshNode) {
  ocean::MomConfig cfg = ocean::MomConfig::low_resolution();
  sxs::Node node_a(sxs::MachineConfig::sx4_benchmarked());
  ocean::Mom a(cfg, node_a);
  for (int s = 0; s < 6; ++s) a.step(8);
  const auto snap = a.checkpoint();
  for (int s = 0; s < 4; ++s) a.step(8);

  sxs::Node node_b(sxs::MachineConfig::sx4_product());  // faster clock
  ocean::Mom b(cfg, node_b);
  b.restore(snap);
  double t_b = 0;
  for (int s = 0; s < 4; ++s) t_b += b.step(8);
  EXPECT_DOUBLE_EQ(a.checksum(), b.checksum());
  EXPECT_GT(t_b, 0.0);
}

// The PRODLOAD scheduler with service times derived from the live models —
// the full pipeline the prodload bench uses, at test scale.
TEST(SuiteIntegration, SchedulerConsumesModelServiceTimes) {
  const auto machine = sxs::MachineConfig::sx4_benchmarked();
  sxs::Node node(machine);
  ccm2::Ccm2Config c;
  c.res = ccm2::t42l18();
  c.active_levels = 1;
  ccm2::Ccm2 model(c, node);
  node.reset();
  const double t42_1day = model.measure_step_seconds(2, 2) *
                          c.res.steps_per_day();

  prodload::Scheduler sched(machine.cpus_per_node,
                            machine.bank_contention_per_cpu);
  prodload::Sequence seq{
      "seq",
      {prodload::Job{"job",
                     {{"ccm2-a", 2, Seconds(t42_1day)},
                      {"ccm2-b", 2, Seconds(t42_1day)}}}}};
  const auto r = sched.run({seq});
  // Both components run concurrently; makespan ~ one job + contention.
  EXPECT_GT(r.makespan.value(), t42_1day);
  EXPECT_LT(r.makespan.value(), 1.05 * t42_1day);
}

}  // namespace
