// Trace determinism: attribution counters and the Chrome trace exported
// through the .sxt stream must be byte-identical under sequential and
// threaded host execution, and across repeated runs. The collectors are rank-private
// (same single-writer discipline as the Cpus), so this is the tracing
// counterpart of tests/integration/test_policy_determinism.cpp.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ccm2/model.hpp"
#include "common/thread_pool.hpp"
#include "node_trace.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/attribution.hpp"
#include "trace/category.hpp"
#include "trace/collector.hpp"

namespace {

using namespace ncar;
using sxs::ExecutionPolicy;
using sxs::MachineConfig;
using trace::Mode;

class ModeGuard {
public:
  explicit ModeGuard(Mode m) : before_(trace::mode()) { trace::set_mode(m); }
  ~ModeGuard() { trace::set_mode(before_); }

private:
  Mode before_;
};

std::unique_ptr<sxs::Node> make_node(ExecutionPolicy policy,
                                     ThreadPool* pool) {
  auto node = std::make_unique<sxs::Node>(MachineConfig::sx4_benchmarked(),
                                          policy);
  if (pool != nullptr) node->set_thread_pool(pool);
  return node;
}

/// Two CCM2 steps on 8 CPUs.
void step_ccm2(sxs::Node& node) {
  ccm2::Ccm2Config c;
  c.res = ccm2::t42l18();
  c.active_levels = 1;
  ccm2::Ccm2 model(c, node);
  for (int s = 0; s < 2; ++s) model.step(8);
}

std::unique_ptr<sxs::Node> run_ccm2(ExecutionPolicy policy,
                                    ThreadPool* pool) {
  auto node = make_node(policy, pool);
  step_ccm2(*node);
  return node;
}

/// Run step_ccm2 on `node` in the current (span) mode and return the
/// Chrome JSON its .sxt stream converts to.
std::string chrome_json(const std::string& name, sxs::Node& node) {
  return test::stream_chrome_json(::testing::TempDir() + name + ".sxt", node,
                                  step_ccm2);
}

void expect_tracks_identical(const sxs::Node& a, const sxs::Node& b) {
  ASSERT_EQ(a.cpu_count(), b.cpu_count());
  for (int i = 0; i < a.cpu_count(); ++i) {
    const trace::Collector& ca = a.cpu(i).trace();
    const trace::Collector& cb = b.cpu(i).trace();
    EXPECT_EQ(ca.total_ticks(), cb.total_ticks()) << "cpu " << i;
    for (int k = 0; k < trace::kCategoryCount; ++k) {
      const auto cat = static_cast<trace::Category>(k);
      EXPECT_EQ(ca.category_ticks(cat), cb.category_ticks(cat))
          << "cpu " << i << " " << trace::to_string(cat);
    }
  }
  EXPECT_EQ(a.runtime_trace().total_ticks(), b.runtime_trace().total_ticks());
}

TEST(TraceDeterminism, SummaryCountersPolicyInvariant) {
  ModeGuard g(Mode::Summary);
  ThreadPool pool(4);
  const auto seq = run_ccm2(ExecutionPolicy::Sequential, nullptr);
  const auto thr = run_ccm2(ExecutionPolicy::Threaded, &pool);
  expect_tracks_identical(*seq, *thr);
}

TEST(TraceDeterminism, FullSpansAndChromeTracePolicyInvariant) {
  ModeGuard g(Mode::Full);
  ThreadPool pool(4);
  const auto seq = make_node(ExecutionPolicy::Sequential, nullptr);
  const auto thr = make_node(ExecutionPolicy::Threaded, &pool);
  const std::string a = chrome_json("determinism_seq", *seq);
  const std::string b = chrome_json("determinism_thr", *thr);
  expect_tracks_identical(*seq, *thr);
  ASSERT_NE(a.find("\"ph\":\"X\""), std::string::npos);  // spans exported
  EXPECT_EQ(a, b);  // byte-identical
}

TEST(TraceDeterminism, RepeatedRunsByteIdentical) {
  ModeGuard g(Mode::Full);
  ThreadPool pool(4);
  const auto first = make_node(ExecutionPolicy::Threaded, &pool);
  const auto second = make_node(ExecutionPolicy::Threaded, &pool);
  const std::string a = chrome_json("determinism_a", *first);
  const std::string b = chrome_json("determinism_b", *second);
  expect_tracks_identical(*first, *second);
  ASSERT_NE(a.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(TraceDeterminism, AttributionTablesPolicyInvariant) {
  ModeGuard g(Mode::Summary);
  ThreadPool pool(4);
  const auto seq = run_ccm2(ExecutionPolicy::Sequential, nullptr);
  const auto thr = run_ccm2(ExecutionPolicy::Threaded, &pool);
  std::vector<const trace::Collector*> ta, tb;
  for (int i = 0; i < seq->cpu_count(); ++i) {
    ta.push_back(&seq->cpu(i).trace());
    tb.push_back(&thr->cpu(i).trace());
  }
  const auto aa = trace::build_attribution(
      std::span<const trace::Collector* const>(ta.data(), ta.size()));
  const auto ab = trace::build_attribution(
      std::span<const trace::Collector* const>(tb.data(), tb.size()));
  EXPECT_EQ(aa.total_ticks, ab.total_ticks);
  for (std::size_t i = 0; i < aa.rows.size(); ++i) {
    EXPECT_EQ(aa.rows[i].ticks, ab.rows[i].ticks);
    EXPECT_EQ(aa.rows[i].fraction, ab.rows[i].fraction);
  }
}

}  // namespace
