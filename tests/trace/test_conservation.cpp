// Attribution conservation on the real application models: for every
// simulated Cpu the per-category cycle rows must fold bit-exactly to the
// CPU's charged cycle counter, and tracing must never perturb the charged
// cycles themselves.

#include <gtest/gtest.h>

#include <utility>

#include "ccm2/model.hpp"
#include "machines/comparator.hpp"
#include "ocean/mom.hpp"
#include "prodload/scheduler.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/attribution.hpp"
#include "trace/category.hpp"
#include "trace/collector.hpp"

namespace {

using namespace ncar;
using sxs::MachineConfig;
using trace::Category;
using trace::Mode;

class ModeGuard {
public:
  explicit ModeGuard(Mode m) : before_(trace::mode()) { trace::set_mode(m); }
  ~ModeGuard() { trace::set_mode(before_); }

private:
  Mode before_;
};

double fold_rows(const trace::Attribution& a) {
  double s = 0;
  for (const auto& row : a.rows) s += row.ticks;
  return s;
}

/// Per-CPU conservation: collector total == Cpu cycle counter, rows fold to
/// the total, and the runtime-only categories never land on a Cpu track.
void expect_node_conserves(const sxs::Node& node) {
  for (int i = 0; i < node.cpu_count(); ++i) {
    const trace::Collector& c = node.cpu(i).trace();
    EXPECT_EQ(c.total_ticks(), node.cpu(i).cycles()) << "cpu " << i;
    const trace::Attribution a = trace::build_attribution(c);
    EXPECT_EQ(fold_rows(a), a.total_ticks) << "cpu " << i;
    EXPECT_EQ(c.category_ticks(Category::Barrier), 0.0) << "cpu " << i;
    EXPECT_EQ(c.category_ticks(Category::Idle), 0.0) << "cpu " << i;
  }
  // The node runtime track mirrors the wall clock the same way.
  EXPECT_EQ(node.runtime_trace().total_ticks(), node.elapsed_seconds());
  const trace::Attribution rt =
      trace::build_attribution(node.runtime_trace());
  EXPECT_EQ(fold_rows(rt), rt.total_ticks);
}

TEST(Conservation, Ccm2StepsConserve) {
  ModeGuard g(Mode::Summary);
  sxs::Node node(MachineConfig::sx4_benchmarked());
  ccm2::Ccm2Config c;
  c.res = ccm2::t42l18();
  c.active_levels = 1;
  ccm2::Ccm2 model(c, node);
  for (int s = 0; s < 2; ++s) model.step(8);
  expect_node_conserves(node);
  // Something was actually attributed beyond Other.
  double categorised = 0;
  for (int i = 0; i < node.cpu_count(); ++i) {
    for (int k = 0; k < trace::kCategoryCount - 1; ++k) {
      categorised +=
          node.cpu(i).trace().category_ticks(static_cast<Category>(k));
    }
  }
  EXPECT_GT(categorised, 0.0);
}

/// Scalar and Other rows of a track's attribution table.
struct ScalarOther {
  double scalar;
  double other;
  double total;
};

ScalarOther scalar_and_other(const trace::Collector& track) {
  const trace::Attribution a = trace::build_attribution(track);
  return {a.rows[static_cast<std::size_t>(Category::Scalar)].ticks,
          a.rows.back().ticks, a.total_ticks};
}

// CCM2's serial step-management section and a scalar machine's libm call
// overhead are serial, non-vectorised work: both land in `scalar`, and
// compared with the same run without the charge the `other` row does not
// move. A category is only a tag, so the simulated seconds are pinned
// bit-exactly.
TEST(Conservation, SerialAndLibmOverheadChargesAreScalar) {
  ModeGuard g(Mode::Summary);
  const auto ccm2_step = [](double serial_s) {
    sxs::Node node(MachineConfig::sx4_benchmarked());
    ccm2::Ccm2Config c;
    c.res = ccm2::t42l18();
    c.active_levels = 1;
    c.serial_overhead_s = serial_s;
    ccm2::Ccm2 model(c, node);
    const double seconds = model.step(8).total;
    return std::pair{seconds, scalar_and_other(node.cpu(0).trace())};
  };
  const double serial_s = ccm2::Ccm2Config{}.serial_overhead_s;
  const auto [step_s, with] = ccm2_step(serial_s);
  const auto [bare_step_s, without] = ccm2_step(0.0);
  const double serial_cycles =
      MachineConfig::sx4_benchmarked().to_cycles(Seconds(serial_s)).value();
  EXPECT_EQ(step_s, 0x1.6df46b609b5bap-4);
  EXPECT_EQ(bare_step_s, 0x1.e62647650dc16p-5);
  EXPECT_DOUBLE_EQ(with.scalar - without.scalar, serial_cycles);
  EXPECT_NEAR(with.other, without.other, 1e-9 * with.total);

  const auto libm_call = [](double overhead_cycles) {
    machines::Spec spec = machines::Comparator::sun_sparc20();
    spec.libm_call_overhead_cycles = overhead_cycles;
    machines::Comparator cmp(spec);
    cmp.intrinsic(sxs::Intrinsic::Exp, 1000);
    return std::pair{cmp.seconds().value(),
                     scalar_and_other(cmp.cpu().trace())};
  };
  const double overhead =
      machines::Comparator::sun_sparc20().libm_call_overhead_cycles;
  ASSERT_GT(overhead, 0.0);
  const auto [libm_s, charged] = libm_call(overhead);
  const auto [bare_libm_s, bare] = libm_call(0.0);
  EXPECT_EQ(libm_s, 0x1.1f2f1a49d83b4p-10);
  EXPECT_EQ(bare_libm_s, 0x1.dc4e1f1cd0c63p-13);
  EXPECT_EQ(charged.scalar - bare.scalar, 1000.0 * overhead);
  EXPECT_EQ(charged.other, bare.other);
}

TEST(Conservation, MomStepsConserve) {
  ModeGuard g(Mode::Summary);
  sxs::Node node(MachineConfig::sx4_benchmarked());
  ocean::Mom mom(ocean::MomConfig::low_resolution(), node);
  for (int s = 0; s < 2; ++s) mom.step(8);
  expect_node_conserves(node);
}

TEST(Conservation, ProdloadSchedulerTrackTotalsJobSeconds) {
  ModeGuard g(Mode::Summary);
  trace::Collector track;
  prodload::Scheduler sched(32, 0.0006);
  sched.set_trace(&track);
  prodload::Sequence seq;
  seq.name = "seq";
  for (int j = 0; j < 3; ++j) {
    prodload::Job job;
    job.name = "job" + std::to_string(j);
    job.components = {{"work", 8, Seconds(100.0 + j)}};
    seq.jobs.push_back(job);
  }
  const auto result = sched.run({seq});
  // One span-equivalent per job; the track total is the sum of job
  // residence times (queue wait + service), conserved bit-exactly.
  double expected = 0;
  for (const auto& job : result.jobs) {
    expected += (job.end - job.start).value();
  }
  EXPECT_EQ(track.total_ticks(), expected);
  const trace::Attribution a = trace::build_attribution(track);
  EXPECT_EQ(fold_rows(a), a.total_ticks);
}

TEST(Conservation, TracingDoesNotPerturbChargedCycles) {
  // Off vs Summary vs Full must charge bit-identical cycles: tracing reads
  // the costs, it never participates in them.
  auto run = [](Mode m) {
    ModeGuard g(m);
    sxs::Node node(MachineConfig::sx4_benchmarked());
    ccm2::Ccm2Config c;
    c.res = ccm2::t42l18();
    c.active_levels = 1;
    ccm2::Ccm2 model(c, node);
    model.step(8);
    std::vector<double> cycles;
    for (int i = 0; i < node.cpu_count(); ++i) {
      cycles.push_back(node.cpu(i).cycles());
    }
    cycles.push_back(node.elapsed_seconds());
    return cycles;
  };
  const auto off = run(Mode::Off);
  EXPECT_EQ(off, run(Mode::Summary));
  EXPECT_EQ(off, run(Mode::Full));
}

}  // namespace
