// Tolerance bands, expectations, and baseline round-trip/compare.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/baseline.hpp"
#include "harness/expectation.hpp"
#include "harness/json.hpp"
#include "harness/reporter.hpp"

namespace ncar::bench {
namespace {

// --- Band edges (bands are inclusive intervals) ---------------------------

TEST(Band, AbsoluteEdges) {
  const Band b = Band::absolute(100.0, 5.0);
  EXPECT_TRUE(b.contains(100.0));
  EXPECT_TRUE(b.contains(95.0));
  EXPECT_TRUE(b.contains(105.0));
  EXPECT_FALSE(b.contains(94.999));
  EXPECT_FALSE(b.contains(105.001));
  EXPECT_DOUBLE_EQ(b.lo(), 95.0);
  EXPECT_DOUBLE_EQ(b.hi(), 105.0);
}

TEST(Band, AbsoluteZeroTolerancePinsExactly) {
  const Band b = Band::absolute(32.0, 0.0);
  EXPECT_TRUE(b.contains(32.0));
  EXPECT_FALSE(b.contains(32.0000001));
  EXPECT_FALSE(b.contains(31.9999999));
}

TEST(Band, RelativeEdges) {
  const Band b = Band::relative(200.0, 0.25);  // [150, 250]
  EXPECT_TRUE(b.contains(150.0));
  EXPECT_TRUE(b.contains(250.0));
  EXPECT_FALSE(b.contains(149.9));
  EXPECT_FALSE(b.contains(250.1));
}

TEST(Band, RelativeOfNegativeExpectedUsesMagnitude) {
  const Band b = Band::relative(-100.0, 0.10);  // [-110, -90]
  EXPECT_TRUE(b.contains(-100.0));
  EXPECT_TRUE(b.contains(-110.0));
  EXPECT_TRUE(b.contains(-90.0));
  EXPECT_FALSE(b.contains(-89.0));
  EXPECT_FALSE(b.contains(-111.0));
}

TEST(Band, RangeEdges) {
  const Band b = Band::range(0.10, 0.18);
  EXPECT_TRUE(b.contains(0.10));
  EXPECT_TRUE(b.contains(0.18));
  EXPECT_TRUE(b.contains(0.14));
  EXPECT_FALSE(b.contains(0.0999));
  EXPECT_FALSE(b.contains(0.181));
}

TEST(Band, BooleanMatchesOnlyItsTruthValue) {
  const Band yes = Band::boolean(true);
  EXPECT_TRUE(yes.contains(1.0));
  EXPECT_FALSE(yes.contains(0.0));
  const Band no = Band::boolean(false);
  EXPECT_TRUE(no.contains(0.0));
  EXPECT_FALSE(no.contains(1.0));
}

TEST(Band, JsonRoundTripAllKinds) {
  for (const Band& b :
       {Band::absolute(9.2, 1e-9), Band::relative(1371.0, 0.25),
        Band::range(5.0, 20.0), Band::boolean(true), Band::boolean(false)}) {
    EXPECT_EQ(Band::from_json(b.to_json()), b) << b.describe();
  }
}

TEST(Expectation, JsonRoundTripKeepsVerdict) {
  Expectation e;
  e.metric = "table7.mom.seconds@cpus=32";
  e.band = Band::relative(226.62, 0.25);
  e.source = "paper Table 7";
  e.actual = 217.33;
  e.passed = true;
  const Expectation back = Expectation::from_json(e.to_json());
  EXPECT_EQ(back.metric, e.metric);
  EXPECT_EQ(back.band, e.band);
  EXPECT_EQ(back.source, e.source);
  EXPECT_DOUBLE_EQ(back.actual, e.actual);
  EXPECT_TRUE(back.passed);
}

// --- Baseline round-trip ---------------------------------------------------

Baseline demo_baseline() {
  Baseline b;
  b.bench = "demo";
  b.metrics = {{"demo.copy.mb_per_s@N=256", 5206.977349648529, "MB/s"},
               {"demo.verified", 1.0, ""},
               {"demo.seconds", 226.62, "s"}};
  return b;
}

TEST(Baseline, JsonRoundTripPreservesOrderValuesAndUnits) {
  const Baseline b = demo_baseline();
  const Baseline back = Baseline::from_json(b.to_json());
  EXPECT_EQ(back, b);
  ASSERT_EQ(back.metrics.size(), 3u);
  EXPECT_EQ(back.metrics[0].name, "demo.copy.mb_per_s@N=256");
  EXPECT_EQ(back.metrics[0].unit, "MB/s");
  EXPECT_EQ(back.metrics[1].unit, "");
}

TEST(Baseline, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "demo_baseline.json")
          .string();
  const Baseline b = demo_baseline();
  b.save(path);
  EXPECT_EQ(Baseline::load(path), b);
  std::remove(path.c_str());
}

TEST(Baseline, LoadThrowsOnMissingAndInvalidFiles) {
  EXPECT_THROW(Baseline::load("/nonexistent/nowhere.json"),
               std::runtime_error);
  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "bad_baseline.json")
          .string();
  std::ofstream(path) << "{not json";
  EXPECT_THROW(Baseline::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Baseline, FindLocatesMetricsByName) {
  const Baseline b = demo_baseline();
  ASSERT_NE(b.find("demo.seconds"), nullptr);
  EXPECT_DOUBLE_EQ(b.find("demo.seconds")->value, 226.62);
  EXPECT_EQ(b.find("absent"), nullptr);
}

// --- compare_metrics -------------------------------------------------------

TEST(CompareMetrics, IdenticalRunIsOk) {
  const Baseline b = demo_baseline();
  const CompareResult r = compare_metrics(b, b.metrics, 0.02);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.deltas.size(), 3u);
}

TEST(CompareMetrics, TwentyPercentDropIsARegression) {
  const Baseline b = demo_baseline();
  auto run = b.metrics;
  run[0].value *= 0.8;
  const CompareResult r = compare_metrics(b, run, 0.02);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressed, 1);
  EXPECT_EQ(r.deltas[0].status, MetricDelta::Status::Regressed);
  EXPECT_NEAR(r.deltas[0].rel_change, -0.20, 1e-12);
}

TEST(CompareMetrics, ToleranceIsSymmetric) {
  // A large *rise* is also flagged: the baseline describes the expected
  // behaviour of a deterministic model, so drift either way is suspect.
  const Baseline b = demo_baseline();
  auto run = b.metrics;
  run[2].value *= 1.5;
  EXPECT_EQ(compare_metrics(b, run, 0.02).regressed, 1);
}

TEST(CompareMetrics, WithinToleranceIsOk) {
  const Baseline b = demo_baseline();
  auto run = b.metrics;
  run[0].value *= 1.019;
  run[2].value *= 0.981;
  EXPECT_TRUE(compare_metrics(b, run, 0.02).ok());
}

TEST(CompareMetrics, MissingBaselineMetricIsFlagged) {
  const Baseline b = demo_baseline();
  auto run = b.metrics;
  run.erase(run.begin() + 1);
  const CompareResult r = compare_metrics(b, run, 0.02);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.missing, 1);
  EXPECT_EQ(r.deltas[1].status, MetricDelta::Status::Missing);
  EXPECT_EQ(r.deltas[1].name, "demo.verified");
}

TEST(CompareMetrics, ExtraRunMetricsAreNotRegressions) {
  const Baseline b = demo_baseline();
  auto run = b.metrics;
  run.push_back({"demo.new_metric", 42.0, ""});
  EXPECT_TRUE(compare_metrics(b, run, 0.02).ok());
}

TEST(CompareMetrics, ZeroBaselineUsesAbsoluteTolerance) {
  Baseline b;
  b.bench = "zero";
  b.metrics = {{"zero.residual", 0.0, ""}};
  EXPECT_TRUE(compare_metrics(b, {{"zero.residual", 0.01, ""}}, 0.02).ok());
  EXPECT_FALSE(compare_metrics(b, {{"zero.residual", 0.03, ""}}, 0.02).ok());
}

// --- host-timing percentiles ----------------------------------------------

BenchReporter make_reporter(const std::string& name) {
  static char prog[] = "test";
  char* argv[] = {prog};
  return BenchReporter(name, 1, argv);
}

double host_value(const BenchReporter& rep, const std::string& name) {
  for (const Metric& m : rep.host_metrics()) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing host metric " << name;
  return -1.0;
}

TEST(HostTiming, NearestRankPercentilesAndStddev) {
  BenchReporter rep = make_reporter("ht_values");
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  rep.host_timing("t.sweep_s", samples);
  EXPECT_DOUBLE_EQ(host_value(rep, "t.sweep_s.p50"), 50.0);
  EXPECT_DOUBLE_EQ(host_value(rep, "t.sweep_s.p90"), 90.0);
  EXPECT_DOUBLE_EQ(host_value(rep, "t.sweep_s.p99"), 99.0);
  // Population stddev of 1..100: sqrt((100^2 - 1) / 12).
  EXPECT_NEAR(host_value(rep, "t.sweep_s.stddev"),
              std::sqrt((100.0 * 100.0 - 1.0) / 12.0), 1e-12);
  // Timing statistics are host telemetry, never deterministic metrics.
  EXPECT_TRUE(rep.metrics().empty());
}

TEST(HostTiming, SingleSampleIsEveryPercentile) {
  BenchReporter rep = make_reporter("ht_single");
  rep.host_timing("t.one_s", {0.25});
  EXPECT_DOUBLE_EQ(host_value(rep, "t.one_s.p50"), 0.25);
  EXPECT_DOUBLE_EQ(host_value(rep, "t.one_s.p90"), 0.25);
  EXPECT_DOUBLE_EQ(host_value(rep, "t.one_s.p99"), 0.25);
  EXPECT_DOUBLE_EQ(host_value(rep, "t.one_s.stddev"), 0.0);
}

TEST(HostTiming, EmptySampleSetRegistersNothing) {
  BenchReporter rep = make_reporter("ht_empty");
  rep.host_timing("t.none_s", {});
  EXPECT_TRUE(rep.host_metrics().empty());
}

}  // namespace
}  // namespace ncar::bench
