#include "harness/gate.hpp"

#include <algorithm>
#include <filesystem>
#include <ostream>

#include "harness/baseline.hpp"
#include "harness/expectation.hpp"

namespace fs = std::filesystem;

namespace ncar::bench {

namespace {

/// Sorted <bench>.json stems in `dir` so the gate's order (and the
/// summary) is independent of directory enumeration order. A stem with a
/// dot is a bench's artifact (BenchReporter::aux_path: <bench>.trace.json,
/// design_sweep.report.json), not a result.
std::vector<std::string> json_stems(const fs::path& dir) {
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string stem = entry.path().stem().string();
    if (entry.is_regular_file() && entry.path().extension() == ".json" &&
        stem.find('.') == std::string::npos) {
      stems.push_back(stem);
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

}  // namespace

Json GateReport::summary() const {
  Json j = Json::object();
  j.set("schema", "sx4ncar-bench-summary-v1");
  j.set("rel_tol", kGateRelTol);
  j.set("ok", ok);
  int regressed = 0, failed_exp = 0;
  Json benches = Json::array();
  for (const auto& e : entries) {
    Json b = Json::object();
    b.set("bench", e.bench);
    b.set("status", e.status);
    b.set("metrics_checked", e.metrics_checked);
    b.set("regressed", e.regressed);
    b.set("missing_metrics", e.missing_metrics);
    b.set("expectations_failed", e.expectations_failed);
    if (!e.notes.empty()) {
      Json notes = Json::array();
      for (const auto& n : e.notes) notes.push_back(n);
      b.set("notes", std::move(notes));
    }
    benches.push_back(std::move(b));
    regressed += e.regressed;
    failed_exp += e.expectations_failed;
  }
  j.set("benches", std::move(benches));
  j.set("total_regressed", regressed);
  j.set("total_expectations_failed", failed_exp);
  return j;
}

int run_gate(const GateOptions& opts, std::ostream& log,
             GateReport* out_report) {
  if (!fs::is_directory(opts.results_dir)) {
    log << "bench_gate: results directory not found: " << opts.results_dir
        << '\n';
    return 2;
  }

  if (opts.update_baselines) {
    // Read every result first: one that does not read fails the update
    // before any committed baseline is touched.
    std::vector<std::pair<std::string, Baseline>> bases;
    for (const auto& stem : json_stems(opts.results_dir)) {
      const fs::path path = fs::path(opts.results_dir) / (stem + ".json");
      try {
        bases.emplace_back(stem, Baseline::from_json(Json::load(path.string())));
      } catch (const std::exception& e) {
        log << "bench_gate: cannot baseline " << path.string() << ": "
            << e.what() << '\n';
        return 1;
      }
    }
    try {
      for (const auto& [stem, base] : bases) {
        base.save((fs::path(opts.baselines_dir) / (stem + ".json")).string());
        log << "bench_gate: baselined " << base.bench << " ("
            << base.metrics.size() << " metrics)\n";
      }
    } catch (const std::exception& e) {
      log << "bench_gate: ERROR: " << e.what() << '\n';
      return 2;
    }
    log << "bench_gate: wrote " << bases.size() << " baselines to "
        << opts.baselines_dir << '\n';
    return 0;
  }

  if (!fs::is_directory(opts.baselines_dir)) {
    log << "bench_gate: baselines directory not found: " << opts.baselines_dir
        << '\n';
    return 2;
  }

  GateReport report;

  // Pass 1: every committed baseline must have a matching, in-band result.
  for (const auto& stem : json_stems(opts.baselines_dir)) {
    GateEntry entry;
    entry.bench = stem;
    const fs::path result_path = fs::path(opts.results_dir) / (stem + ".json");

    Baseline base;
    try {
      base = Baseline::load(
          (fs::path(opts.baselines_dir) / (stem + ".json")).string());
    } catch (const std::exception& e) {
      entry.status = "invalid-result";
      entry.notes.push_back(e.what());
      report.entries.push_back(std::move(entry));
      continue;
    }

    if (!fs::exists(result_path)) {
      entry.status = "missing-result";
      entry.notes.push_back("no result file " + result_path.string());
      report.entries.push_back(std::move(entry));
      continue;
    }

    Json result;
    Baseline run;
    try {
      result = Json::load(result_path.string());
      run = Baseline::from_json(result);
    } catch (const std::exception& e) {
      entry.status = "invalid-result";
      entry.notes.push_back(e.what());
      report.entries.push_back(std::move(entry));
      continue;
    }

    const CompareResult cmp = compare_metrics(base, run.metrics, kGateRelTol);
    entry.metrics_checked = static_cast<int>(cmp.deltas.size());
    entry.regressed = cmp.regressed;
    entry.missing_metrics = cmp.missing;
    for (const auto& d : cmp.deltas) {
      if (d.status == MetricDelta::Status::Missing) {
        entry.notes.push_back("missing metric " + d.name);
      } else if (d.status == MetricDelta::Status::Regressed) {
        entry.notes.push_back(
            d.name + ": baseline " + Json::number_to_string(d.baseline) +
            ", now " + Json::number_to_string(d.actual) + " (" +
            Json::number_to_string(100.0 * d.rel_change) + "%)");
      }
    }

    if (const Json* failed = result.find("expectations_failed")) {
      entry.expectations_failed = static_cast<int>(failed->as_number());
      if (const Json* exps = result.find("expectations")) {
        for (const auto& ej : exps->as_array()) {
          const Expectation e = Expectation::from_json(ej);
          if (!e.passed) {
            entry.notes.push_back("expectation failed: " + e.metric + " [" +
                                  e.source + "]");
          }
        }
      }
    }

    if (entry.expectations_failed > 0) entry.status = "expectation-failed";
    else if (!cmp.ok()) entry.status = "regressed";
    else entry.status = "ok";
    report.entries.push_back(std::move(entry));
  }

  // Pass 2: results without a baseline still gate on their own recorded
  // expectations (e.g. host-timing benches we deliberately don't baseline).
  for (const auto& stem : json_stems(opts.results_dir)) {
    if (fs::exists(fs::path(opts.baselines_dir) / (stem + ".json"))) continue;
    GateEntry entry;
    entry.bench = stem;
    entry.status = "no-baseline";
    try {
      const Json result = Json::load(
          (fs::path(opts.results_dir) / (stem + ".json")).string());
      if (const Json* failed = result.find("expectations_failed")) {
        entry.expectations_failed = static_cast<int>(failed->as_number());
        if (entry.expectations_failed > 0) entry.status = "expectation-failed";
      }
    } catch (const std::exception& e) {
      entry.status = "invalid-result";
      entry.notes.push_back(e.what());
    }
    report.entries.push_back(std::move(entry));
  }

  std::sort(report.entries.begin(), report.entries.end(),
            [](const GateEntry& a, const GateEntry& b) {
              return a.bench < b.bench;
            });

  report.ok = true;
  for (const auto& e : report.entries) {
    if (e.status != "ok" && e.status != "no-baseline") report.ok = false;
    log << "bench_gate: " << e.bench << ": " << e.status;
    if (e.metrics_checked > 0) log << " (" << e.metrics_checked << " metrics)";
    log << '\n';
    for (const auto& n : e.notes) log << "  - " << n << '\n';
  }
  log << "bench_gate: " << report.entries.size() << " benches, verdict "
      << (report.ok ? "PASS" : "FAIL") << '\n';

  int rc = report.ok ? 0 : 1;
  if (!opts.summary_path.empty()) {
    try {
      report.summary().save(opts.summary_path);
      log << "bench_gate: wrote " << opts.summary_path << '\n';
    } catch (const std::exception& e) {
      log << "bench_gate: ERROR: " << e.what() << '\n';
      rc = 2;
    }
  }
  if (out_report) *out_report = std::move(report);
  return rc;
}

}  // namespace ncar::bench
