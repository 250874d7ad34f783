// run_gate on synthetic fixture directories: exit codes, per-bench
// statuses, summary roll-up, and --update-baselines.

#include "harness/gate.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/baseline.hpp"
#include "harness/expectation.hpp"
#include "harness/json.hpp"

namespace fs = std::filesystem;

namespace ncar::bench {
namespace {

/// Fresh results/ + baselines/ pair under the gtest temp dir, torn down
/// per test.
class GateTest : public testing::Test {
protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) /
            ("gate_" + std::string(testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "results");
    fs::create_directories(root_ / "baselines");
  }
  void TearDown() override { fs::remove_all(root_); }

  /// A minimal result-v1 document with two metrics and one expectation.
  Json make_result(const std::string& bench, double mflops,
                   double seconds, bool expectation_passes = true) const {
    Json j = Json::object();
    j.set("schema", "sx4ncar-bench-result-v1");
    j.set("bench", bench);
    j.set("full_mode", false);
    Json ms = Json::object();
    ms.set(bench + ".mflops", mflops);
    ms.set(bench + ".seconds", seconds);
    j.set("metrics", std::move(ms));
    Expectation e;
    e.metric = bench + ".mflops";
    e.band = Band::relative(mflops, 0.25);
    e.source = "fixture";
    e.actual = expectation_passes ? mflops : mflops * 10;
    e.passed = e.band.contains(e.actual);
    Json exps = Json::array();
    exps.push_back(e.to_json());
    j.set("expectations", std::move(exps));
    j.set("expectations_failed", e.passed ? 0 : 1);
    j.set("passed", e.passed);
    return j;
  }

  void write(const fs::path& rel, const Json& j) const {
    std::ofstream(root_ / rel) << j.dump() << '\n';
  }

  GateOptions opts() const {
    GateOptions o;
    o.results_dir = (root_ / "results").string();
    o.baselines_dir = (root_ / "baselines").string();
    o.summary_path = (root_ / "BENCH_SUMMARY.json").string();
    return o;
  }

  Json read_summary() const {
    std::ifstream in(root_ / "BENCH_SUMMARY.json");
    std::ostringstream ss;
    ss << in.rdbuf();
    return Json::parse(ss.str());
  }

  static const GateEntry* entry(const GateReport& r, const std::string& b) {
    for (const auto& e : r.entries) {
      if (e.bench == b) return &e;
    }
    return nullptr;
  }

  fs::path root_;
  std::ostringstream log_;
};

TEST_F(GateTest, MatchingResultsPass) {
  const Json result = make_result("demo", 537.0, 226.62);
  write("results/demo.json", result);
  write("baselines/demo.json", Baseline::from_json(result).to_json());

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 0);
  ASSERT_NE(entry(report, "demo"), nullptr);
  EXPECT_EQ(entry(report, "demo")->status, "ok");
  EXPECT_EQ(entry(report, "demo")->metrics_checked, 2);
  EXPECT_TRUE(read_summary().at("ok").as_bool());
}

TEST_F(GateTest, InjectedTwentyPercentRegressionFails) {
  const Json good = make_result("demo", 537.0, 226.62);
  write("baselines/demo.json", Baseline::from_json(good).to_json());
  write("results/demo.json", make_result("demo", 537.0 * 0.8, 226.62));

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 1);
  EXPECT_EQ(entry(report, "demo")->status, "regressed");
  EXPECT_EQ(entry(report, "demo")->regressed, 1);
  EXPECT_FALSE(read_summary().at("ok").as_bool());
  EXPECT_EQ(read_summary().at("total_regressed").as_number(), 1);
}

TEST_F(GateTest, MissingMetricFails) {
  const Json good = make_result("demo", 537.0, 226.62);
  write("baselines/demo.json", Baseline::from_json(good).to_json());
  Json shrunk = make_result("demo", 537.0, 226.62);
  Json ms = Json::object();
  ms.set("demo.mflops", 537.0);  // drops demo.seconds
  shrunk.set("metrics", std::move(ms));
  write("results/demo.json", shrunk);

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 1);
  EXPECT_EQ(entry(report, "demo")->status, "regressed");
  EXPECT_EQ(entry(report, "demo")->missing_metrics, 1);
}

TEST_F(GateTest, MissingResultFileFails) {
  write("baselines/demo.json",
        Baseline::from_json(make_result("demo", 537.0, 226.62)).to_json());

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 1);
  EXPECT_EQ(entry(report, "demo")->status, "missing-result");
}

TEST_F(GateTest, ModeMismatchFails) {
  const Json quick = make_result("demo", 537.0, 226.62);
  write("baselines/demo.json", Baseline::from_json(quick).to_json());
  Json full = make_result("demo", 537.0, 226.62);
  full.set("full_mode", true);
  write("results/demo.json", full);

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 1);
  EXPECT_EQ(entry(report, "demo")->status, "mode-mismatch");
}

TEST_F(GateTest, FailedRecordedExpectationFails) {
  const Json result = make_result("demo", 537.0, 226.62,
                                  /*expectation_passes=*/false);
  write("results/demo.json", result);
  write("baselines/demo.json", Baseline::from_json(result).to_json());

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 1);
  EXPECT_EQ(entry(report, "demo")->status, "expectation-failed");
  EXPECT_EQ(entry(report, "demo")->expectations_failed, 1);
}

TEST_F(GateTest, ResultWithoutBaselineIsNotAFailure) {
  // Host-timing benches (micro_substrates) deliberately have no committed
  // baseline; the gate must not fail on them.
  write("results/hosty.json", make_result("hosty", 100.0, 1.0));

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 0);
  EXPECT_EQ(entry(report, "hosty")->status, "no-baseline");
}

TEST_F(GateTest, ResultWithoutBaselineStillGatesItsExpectations) {
  write("results/hosty.json",
        make_result("hosty", 100.0, 1.0, /*expectation_passes=*/false));

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 1);
  EXPECT_EQ(entry(report, "hosty")->status, "expectation-failed");
}

TEST_F(GateTest, CorruptResultFails) {
  write("baselines/demo.json",
        Baseline::from_json(make_result("demo", 537.0, 226.62)).to_json());
  std::ofstream(root_ / "results/demo.json") << "{broken";

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 1);
  EXPECT_EQ(entry(report, "demo")->status, "invalid-result");
}

TEST_F(GateTest, MissingDirectoriesAreConfigErrors) {
  GateOptions o = opts();
  o.results_dir = (root_ / "nope").string();
  EXPECT_EQ(run_gate(o, log_), 2);

  o = opts();
  fs::remove_all(o.baselines_dir);
  write("results/demo.json", make_result("demo", 537.0, 226.62));
  EXPECT_EQ(run_gate(o, log_), 2);
}

TEST_F(GateTest, UpdateBaselinesWritesLoadableFiles) {
  const Json result = make_result("demo", 537.0, 226.62);
  write("results/demo.json", result);

  GateOptions o = opts();
  o.update_baselines = true;
  EXPECT_EQ(run_gate(o, log_), 0);

  const Baseline b =
      Baseline::load((root_ / "baselines/demo.json").string());
  EXPECT_EQ(b.bench, "demo");
  ASSERT_EQ(b.metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(b.metrics[0].value, 537.0);

  // And a subsequent gate run against the fresh baselines passes.
  EXPECT_EQ(run_gate(opts(), log_), 0);
}

TEST_F(GateTest, UpdateBaselinesFailsOnAnUnreadableResult) {
  write("results/demo.json", make_result("demo", 537.0, 226.62));
  std::ofstream(root_ / "results/zz_broken.json") << "{broken";

  GateOptions o = opts();
  o.update_baselines = true;
  EXPECT_EQ(run_gate(o, log_), 1);
  EXPECT_NE(log_.str().find("zz_broken.json"), std::string::npos)
      << log_.str();
  // Nothing is baselined from a results directory that does not read.
  EXPECT_FALSE(fs::exists(root_ / "baselines/demo.json"));
}

TEST_F(GateTest, ArtifactsBesideResultsAreNotBenches) {
  const Json result = make_result("demo", 537.0, 226.62);
  write("results/demo.json", result);
  write("baselines/demo.json", Baseline::from_json(result).to_json());
  // A Chrome trace and a sweep report written next to the result
  // (BenchReporter::aux_path) carry no "bench" key.
  std::ofstream(root_ / "results/demo.trace.json") << R"({"traceEvents": []})";
  std::ofstream(root_ / "results/demo.report.json") << R"({"kernel": "x"})";

  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 0);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].bench, "demo");

  GateOptions o = opts();
  o.update_baselines = true;
  EXPECT_EQ(run_gate(o, log_), 0);
  EXPECT_FALSE(fs::exists(root_ / "baselines/demo.trace.json"));
}

TEST_F(GateTest, SummaryRecordsTheFixedTolerance) {
  const Json result = make_result("demo", 537.0, 226.62);
  write("results/demo.json", result);
  write("baselines/demo.json", Baseline::from_json(result).to_json());
  EXPECT_EQ(run_gate(opts(), log_), 0);
  EXPECT_EQ(read_summary().at("rel_tol").as_number(), kGateRelTol);
  EXPECT_EQ(kGateRelTol, 0.02);
}

TEST_F(GateTest, SummaryEntriesAreSortedByBench) {
  for (const char* name : {"zeta", "alpha", "mid"}) {
    const Json r = make_result(name, 100.0, 1.0);
    write(fs::path("results") / (std::string(name) + ".json"), r);
    write(fs::path("baselines") / (std::string(name) + ".json"),
          Baseline::from_json(r).to_json());
  }
  GateReport report;
  EXPECT_EQ(run_gate(opts(), log_, &report), 0);
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].bench, "alpha");
  EXPECT_EQ(report.entries[1].bench, "mid");
  EXPECT_EQ(report.entries[2].bench, "zeta");
}

}  // namespace
}  // namespace ncar::bench
