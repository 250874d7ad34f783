#include "harness/reporter.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>

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
               "  --results-dir <dir>  result directory (default bench/results)\n"
               "  --list               print metrics/expectations, no JSON\n"
               "  --ci-check           diff metrics against committed baseline\n"
               "  --baseline-dir <dir> baselines for --ci-check (default "
               "bench/baselines)\n"
               "  --tol <rel>          baseline tolerance (default 0.02)\n"
               "  --deterministic      omit host-dependent JSON fields\n"
               "  --help               this message\n",
               name.c_str());
  std::exit(exit_code);
}

/// --tol's value: all of `text` as a finite decimal number >= 0, else a
/// usage error (exit 2).
double parse_tol(const std::string& name, const std::string& text) {
  double tol = -1.0;
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, tol);
  if (ec != std::errc() || end != last || !std::isfinite(tol) || tol < 0.0) {
    std::fprintf(stderr,
                 "%s: --tol %s is invalid: expected a finite decimal "
                 "number >= 0\n",
                 name.c_str(), text.c_str());
    usage(name, 2);
  }
  return tol;
}

}  // namespace

BenchReporter::BenchReporter(std::string name, int argc, char** argv)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  // Set *and non-empty* selects the full sweep; `SX4NCAR_BENCH_FULL=` forces
  // the quick mode (CTest uses this so runs match the committed baselines).
  full_mode_ = !knob_string("SX4NCAR_BENCH_FULL", "").empty();
  results_dir_ = knob_string("SX4NCAR_BENCH_RESULTS_DIR", "bench/results");
  baseline_dir_ = knob_string("SX4NCAR_BASELINE_DIR", "bench/baselines");

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
    else if (arg == "--results-dir") results_dir_ = value();
    else if (arg == "--baseline-dir") baseline_dir_ = value();
    else if (arg == "--tol") tol_ = parse_tol(name_, value());
    else if (arg == "--list") list_ = true;
    else if (arg == "--ci-check") ci_check_ = true;
    else if (arg == "--deterministic") deterministic_ = true;
    else if (arg == "--help" || arg == "-h") usage(name_, 0);
    else {
      std::fprintf(stderr, "%s: unknown option %s\n", name_.c_str(),
                   arg.c_str());
      usage(name_, 2);
    }
  }

  // The knob parsers are strict: a malformed SX4NCAR_HOST_THREADS,
  // SX4NCAR_SIMD or SX4NCAR_TRACE stops the run here, naming the knob.
  try {
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

int BenchReporter::check_baseline(std::ostream& os) {
  const std::string path = baseline_dir_ + "/" + name_ + ".json";
  Baseline base;
  try {
    base = Baseline::load(path);
  } catch (const std::exception& e) {
    os << "[harness] ci-check: " << e.what() << '\n';
    return 1;
  }
  if (base.full_mode != full_mode_) {
    os << "[harness] ci-check: mode mismatch (baseline "
       << (base.full_mode ? "full" : "quick") << ", run "
       << (full_mode_ ? "full" : "quick") << ")\n";
    return 1;
  }
  const CompareResult cmp = compare_metrics(base, metrics_, tol_);
  for (const auto& d : cmp.deltas) {
    if (d.status == MetricDelta::Status::Missing) {
      os << "[harness] ci-check MISSING " << d.name << " (baseline "
         << Json::number_to_string(d.baseline) << ")\n";
    } else if (d.status == MetricDelta::Status::Regressed) {
      os << "[harness] ci-check REGRESSED " << d.name << ": baseline "
         << Json::number_to_string(d.baseline) << ", now "
         << Json::number_to_string(d.actual) << " ("
         << Json::number_to_string(100.0 * d.rel_change) << "%)\n";
    }
  }
  os << "[harness] ci-check vs " << path << ": " << cmp.deltas.size()
     << " metrics, " << cmp.regressed << " regressed, " << cmp.missing
     << " missing\n";
  return cmp.ok() ? 0 : 1;
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

  int rc = failed == 0 ? 0 : 1;
  if (ci_check_ && check_baseline(os) != 0) rc = 1;

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

  const std::string path =
      json_path_.empty() ? results_dir_ + "/" + name_ + ".json" : json_path_;
  try {
    const std::filesystem::path p(path);
    if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << result_json().dump() << '\n';
    os << "[harness] wrote " << path << '\n';
  } catch (const std::exception& e) {
    os << "[harness] ERROR writing result JSON: " << e.what() << '\n';
    return 2;
  }
  return rc;
}

Baseline result_to_baseline(const Json& result) {
  Baseline b = Baseline::from_json(result);
  return b;
}

}  // namespace ncar::bench
