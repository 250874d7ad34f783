#include "harness/reporter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>

#include <unistd.h>

#include "common/error.hpp"
#include "harness/knobs.hpp"
#include "sxs/execution_policy.hpp"
#include "trace/category.hpp"

namespace ncar::bench {

namespace {

[[noreturn]] void usage(const std::string& name, int exit_code) {
  std::FILE* out = exit_code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options]\n"
               "  --json <path>        write result JSON to <path>\n"
               "  --list               print metrics/expectations, no JSON\n"
               "  --deterministic      omit host-dependent JSON fields\n"
               "  --help               this message\n",
               name.c_str());
  std::exit(exit_code);
}

}  // namespace

BenchReporter::BenchReporter(std::string name, int argc, char** argv)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  // Set *and non-empty* selects the full sweep; `SX4NCAR_BENCH_FULL=` forces
  // the quick mode (CTest uses this so runs match the committed baselines).
  full_mode_ = !knob_string("SX4NCAR_BENCH_FULL", "").empty();
  results_dir_ = knob_string("SX4NCAR_BENCH_RESULTS_DIR", "bench/results");

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", name_.c_str(),
                     arg.c_str());
        usage(name_, 2);
      }
      return argv[++i];
    };
    if (arg == "--json") json_path_ = value();
    else if (arg == "--list") list_ = true;
    else if (arg == "--deterministic") deterministic_ = true;
    else if (arg == "--help" || arg == "-h") usage(name_, 0);
    else {
      std::fprintf(stderr, "%s: unknown option %s\n", name_.c_str(),
                   arg.c_str());
      usage(name_, 2);
    }
  }

  // The knob parsers are strict: an SX4NCAR_* name no code reads, or a
  // malformed SX4NCAR_HOST_THREADS, SX4NCAR_SIMD or SX4NCAR_TRACE, stops
  // the run here, naming the knob.
  try {
    reject_unknown_knobs(environ);
    host_execution_ = sxs::host_execution_summary();
    (void)trace::mode();
  } catch (const config_error& e) {
    config_exit(e);
  }
  std::cout << "host execution: " << host_execution_ << "\n\n";
}

void BenchReporter::config_exit(const config_error& e) const {
  std::fprintf(stderr, "%s: %s\n", name_.c_str(), e.what());
  std::exit(2);
}

namespace {

void require_unique(const std::string& bench, const std::string& name,
                    const std::vector<Metric>& a,
                    const std::vector<Metric>& b) {
  for (const auto* v : {&a, &b}) {
    for (const auto& m : *v) {
      if (m.name == name) {
        std::fprintf(stderr, "%s: duplicate metric \"%s\"\n", bench.c_str(),
                     name.c_str());
        std::exit(2);
      }
    }
  }
}

}  // namespace

double BenchReporter::metric(const std::string& name, double value,
                             const std::string& unit) {
  require_unique(name_, name, metrics_, host_metrics_);
  metrics_.push_back({name, value, unit});
  return value;
}

double BenchReporter::host_metric(const std::string& name, double value,
                                  const std::string& unit) {
  require_unique(name_, name, metrics_, host_metrics_);
  host_metrics_.push_back({name, value, unit});
  return value;
}

void BenchReporter::host_timing(const std::string& prefix,
                                std::vector<double> samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest-rank percentile: the smallest sample with at least p% of the
  // set at or below it.
  auto pct = [&](double p) {
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0) rank = 1;
    return samples[std::min(rank, n) - 1];
  };
  double mean = 0.0;
  for (double s : samples) mean += s;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double s : samples) var += (s - mean) * (s - mean);
  var /= static_cast<double>(n);
  host_metric(prefix + ".p50", pct(50.0), "s");
  host_metric(prefix + ".p90", pct(90.0), "s");
  host_metric(prefix + ".p99", pct(99.0), "s");
  host_metric(prefix + ".stddev", std::sqrt(var), "s");
}

bool BenchReporter::expect(const std::string& metric_name, double actual,
                           Band band, const std::string& source,
                           const std::string& unit) {
  metric(metric_name, actual, unit);
  Expectation e;
  e.metric = metric_name;
  e.band = band;
  e.source = source;
  e.actual = actual;
  e.passed = band.contains(actual);
  expectations_.push_back(e);
  return e.passed;
}

bool BenchReporter::expect_true(const std::string& metric_name, bool ok,
                                const std::string& source) {
  return expect(metric_name, ok ? 1.0 : 0.0, Band::boolean(true), source);
}

void BenchReporter::cost_cache_counters(double hits, double misses) {
  metric(name_ + ".cost_cache.hits", hits);
  metric(name_ + ".cost_cache.misses", misses);
  const double total = hits + misses;
  metric(name_ + ".cost_cache.hit_rate", total > 0 ? hits / total : 0.0);
}

Json BenchReporter::result_json() const {
  Json j = Json::object();
  j.set("schema", "sx4ncar-bench-result-v1");
  j.set("bench", name_);
  j.set("full_mode", full_mode_);
  if (!deterministic_) {
    j.set("host_execution", host_execution_);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    j.set("wall_time_s", wall);
    if (!host_metrics_.empty()) {
      Json hs = Json::object();
      for (const auto& m : host_metrics_) hs.set(m.name, m.value);
      j.set("host_metrics", std::move(hs));
    }
  }
  Json ms = Json::object();
  for (const auto& m : metrics_) ms.set(m.name, m.value);
  j.set("metrics", std::move(ms));
  Json units = Json::object();
  for (const auto& m : metrics_) {
    if (!m.unit.empty()) units.set(m.name, m.unit);
  }
  if (!units.as_object().empty()) j.set("units", std::move(units));
  Json exps = Json::array();
  int failed = 0;
  for (const auto& e : expectations_) {
    exps.push_back(e.to_json());
    if (!e.passed) ++failed;
  }
  j.set("expectations", std::move(exps));
  j.set("expectations_failed", failed);
  j.set("passed", failed == 0);
  return j;
}

int BenchReporter::finish(std::ostream& os) {
  int failed = 0;
  for (const auto& e : expectations_) {
    if (!e.passed) ++failed;
  }

  os << "\n[harness] " << name_ << ": " << metrics_.size() << " metrics, "
     << expectations_.size() << " expectations, " << failed << " failed"
     << (full_mode_ ? " (full mode)" : "") << '\n';
  for (const auto& e : expectations_) {
    if (!e.passed) {
      os << "[harness] FAILED " << e.metric << ": actual "
         << Json::number_to_string(e.actual) << " outside "
         << e.band.describe() << " [" << e.source << "]\n";
    }
  }

  const int rc = failed == 0 ? 0 : 1;

  if (list_) {
    for (const auto& m : metrics_) {
      os << "metric " << m.name << " = " << Json::number_to_string(m.value);
      if (!m.unit.empty()) os << ' ' << m.unit;
      os << '\n';
    }
    for (const auto& m : host_metrics_) {
      os << "host_metric " << m.name << " = "
         << Json::number_to_string(m.value);
      if (!m.unit.empty()) os << ' ' << m.unit;
      os << '\n';
    }
    for (const auto& e : expectations_) {
      os << "expectation " << e.metric << " in " << e.band.describe()
         << " [" << e.source << "] -> " << (e.passed ? "pass" : "FAIL")
         << '\n';
    }
    if (json_path_.empty()) return rc;
  }

  const std::string path = json_path_.empty() ? aux_path("json") : json_path_;
  try {
    result_json().save(path);
    os << "[harness] wrote " << path << '\n';
  } catch (const std::exception& e) {
    os << "[harness] ERROR writing result JSON: " << e.what() << '\n';
    return 2;
  }
  return rc;
}

}  // namespace ncar::bench
