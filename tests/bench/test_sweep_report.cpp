// design_sweep's report writer: key order and counts, the host gauge left
// out, invalid points carrying their (escaped) error, and a file that
// parses back to the value written.

#include "harness/sweep_report.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "machines/description.hpp"
#include "machines/sweep.hpp"
#include "sxs/execution_policy.hpp"

namespace ncar::bench {
namespace {

std::vector<std::string> keys(const Json& j) {
  std::vector<std::string> out;
  for (const auto& [k, v] : j.as_object()) out.push_back(k);
  return out;
}

/// 3*2*2 = 12 points; pipes=3 divides neither VL 64 nor 256, so a third of
/// the grid is invalid.
machines::SweepReport small_sweep() {
  const machines::Grid grid(machines::builtin_catalog().at("NEC SX-4/1"),
                            {{"pipes_per_group", {3, 8, 16}},
                             {"vector_length", {64, 256}},
                             {"port_bytes_per_clock", {32, 128}}});
  machines::SweepOptions opts;
  opts.kernel = "radabs";
  opts.policy = sxs::ExecutionPolicy::Sequential;
  return machines::run_sweep(grid, opts);
}

TEST(SweepReportJson, KeysCountsAndNoHostGauge) {
  machines::SweepReport rep = small_sweep();
  rep.peak_live_workspaces = 7;
  const Json j = sweep_report_json(rep);
  EXPECT_EQ(keys(j), (std::vector<std::string>{
                         "kernel", "base", "axes", "grid_size",
                         "valid_points", "memory_bound_points",
                         "compute_bound_points", "flip_edges", "cost_cache",
                         "fastest", "flips", "points"}));
  EXPECT_EQ(j.at("kernel").as_string(), "radabs");
  EXPECT_EQ(j.at("base").at("name").as_string(), "NEC SX-4/1");
  EXPECT_EQ(j.at("grid_size").as_number(), 12);
  EXPECT_EQ(j.at("valid_points").as_number(), 8);
  EXPECT_EQ(j.at("memory_bound_points").as_number() +
                j.at("compute_bound_points").as_number(),
            8);
  EXPECT_EQ(j.at("flip_edges").as_number(),
            static_cast<double>(j.at("flips").as_array().size()));
  EXPECT_EQ(j.at("cost_cache").at("hits").as_number(),
            static_cast<double>(rep.cache_hits));
  EXPECT_EQ(j.at("fastest").at("index").as_number(),
            static_cast<double>(rep.fastest()->index));

  const Json& points = j.at("points");
  ASSERT_EQ(points.as_array().size(), 12u);
  EXPECT_EQ(keys(points.as_array()[0]),
            (std::vector<std::string>{"index", "values", "valid", "error"}));
  EXPECT_EQ(keys(points.as_array()[1]),
            (std::vector<std::string>{"index", "values", "valid", "seconds",
                                      "hw_mflops", "memory_gain",
                                      "compute_gain", "memory_bound"}));
  // peak_live_workspaces is host-thread-dependent: never written.
  EXPECT_EQ(j.dump().find("peak_live_workspaces"), std::string::npos);
}

TEST(SweepReportJson, InvalidPointErrorIsEscapedAndRoundTrips) {
  machines::SweepReport rep;
  rep.kernel = "vfft";
  rep.base.name = "say \"hi\"";
  machines::PointResult p;
  p.index = 0;
  p.values = {3.0, 0.1};
  p.error = "machine 'x': \"VL\" \\ bad\n\tline\x01";
  rep.points.push_back(p);

  const Json j = sweep_report_json(rep);
  // No valid point: no fastest entry, no timings on the invalid one.
  EXPECT_EQ(j.find("fastest"), nullptr);
  const Json& point = j.at("points").as_array()[0];
  EXPECT_FALSE(point.at("valid").as_bool());
  EXPECT_EQ(point.find("seconds"), nullptr);

  const std::string text = j.dump();
  EXPECT_NE(text.find(R"(\"VL\" \\ bad\n\tline\u0001)"), std::string::npos)
      << text;
  const Json back = Json::parse(text);
  EXPECT_EQ(back, j);
  EXPECT_EQ(back.at("points").as_array()[0].at("error").as_string(), p.error);
  EXPECT_EQ(back.at("base").at("name").as_string(), rep.base.name);
}

TEST(SweepReportJson, SavedFileParsesBackToTheReport) {
  const Json j = sweep_report_json(small_sweep());
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "sweep_report" /
       "design_sweep.report.json")
          .string();
  j.save(path);
  EXPECT_EQ(Json::load(path), j);
  std::filesystem::remove_all(std::filesystem::path(path).parent_path());
}

}  // namespace
}  // namespace ncar::bench
