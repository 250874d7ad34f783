// Chrome JSON of real model runs, pinned. SX4NCAR_TRACE=full renders its
// Chrome trace from the run's .sxt stream; these runs' JSON must keep the
// exact bytes the former in-memory span exporter wrote for the same runs
// (byte length and 64-bit FNV-1a hash, recorded from that exporter). The
// runs use the bench harness's track layout (tests/trace/node_trace.hpp).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "ccm2/model.hpp"
#include "node_trace.hpp"
#include "ocean/mom.hpp"
#include "sxs/execution_policy.hpp"
#include "sxs/machine_config.hpp"
#include "sxs/node.hpp"
#include "trace/category.hpp"

namespace {

using namespace ncar;
using trace::Mode;

class ModeGuard {
public:
  explicit ModeGuard(Mode m) : before_(trace::mode()) { trace::set_mode(m); }
  ~ModeGuard() { trace::set_mode(before_); }

private:
  Mode before_;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Run `model_fn(node)` in Full mode and check the Chrome JSON against
/// the pinned length and hash.
template <typename ModelFn>
void expect_pinned_json(const std::string& sxt_path, std::size_t bytes,
                        std::uint64_t hash, ModelFn model_fn) {
  ModeGuard g(Mode::Full);
  sxs::Node node(sxs::MachineConfig::sx4_benchmarked(),
                 sxs::ExecutionPolicy::Sequential);
  const std::string json = test::stream_chrome_json(sxt_path, node, model_fn);
  EXPECT_EQ(json.size(), bytes);
  EXPECT_EQ(fnv1a(json), hash);
}

TEST(StreamConvert, Ccm2TraceByteIdentical) {
  expect_pinned_json(
      ::testing::TempDir() + "convert_ccm2.sxt", 133562,
      0xacc987459bee8e33ull, [](sxs::Node& node) {
        ccm2::Ccm2Config c;
        c.res = ccm2::t42l18();
        c.active_levels = 1;
        ccm2::Ccm2 model(c, node);
        for (int s = 0; s < 2; ++s) model.step(8);
      });
}

TEST(StreamConvert, MomTraceByteIdentical) {
  expect_pinned_json(
      ::testing::TempDir() + "convert_mom.sxt", 873158, 0x61678a17e607cef8ull,
      [](sxs::Node& node) {
        ocean::Mom model(ocean::MomConfig::low_resolution(), node);
        for (int s = 0; s < 2; ++s) model.step(8);
      });
}

TEST(StreamConvert, ResetMatchesLiveExportToo) {
  // A mid-run Collector::reset starts a new sink epoch; only the spans
  // after it reach the JSON.
  expect_pinned_json(
      ::testing::TempDir() + "convert_reset.sxt", 66722,
      0xb25893eb87c36e76ull, [](sxs::Node& node) {
        ccm2::Ccm2Config c;
        c.res = ccm2::t42l18();
        c.active_levels = 1;
        ccm2::Ccm2 model(c, node);
        model.step(8);
        node.reset();
        model.step(8);
      });
}

}  // namespace
