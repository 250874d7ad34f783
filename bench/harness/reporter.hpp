#pragma once
// BenchReporter — the machine-readable spine of every bench main.
//
// Usage pattern (see any bench/*.cpp):
//
//   int main(int argc, char** argv) {
//     bench::BenchReporter rep("table7_mom", argc, argv);
//     ... print the human tables exactly as before ...
//     rep.metric("table7.mom.speedup@cpus=32", speedup);
//     rep.expect("table7.mom.seconds@cpus=32", time350,
//                bench::Band::relative(226.62, 0.25), "paper Table 7");
//     return rep.finish(std::cout);
//   }
//
// The reporter prints the host-execution banner at construction, collects
// named scalar metrics and paper expectations during the run, and at
// finish() prints a verdict block, writes the result JSON, and returns the
// process exit code (0 only if every expectation holds). It never reads a
// baseline: `bench_gate` is the one place a result meets its committed
// baseline (ctest -L bench-gate). Command line:
//
//   --json <path>         write the result JSON to <path> instead of
//                         $SX4NCAR_BENCH_RESULTS_DIR/<name>.json (default
//                         directory bench/results)
//   --list                print registered metrics/expectations instead of
//                         writing JSON
//   --deterministic       omit host-dependent JSON fields (host_execution,
//                         wall_time_s, host_metrics) so emitted files are
//                         byte-identical across host-thread policies

#include <chrono>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "harness/baseline.hpp"
#include "harness/expectation.hpp"
#include "harness/json.hpp"

namespace ncar::bench {

class BenchReporter {
public:
  /// Parses flags (exits on --help / bad usage) and prints the
  /// "host execution: ..." banner followed by a blank line.
  BenchReporter(std::string name, int argc, char** argv);

  /// Runs `read`, a bench main's parse of its own knobs (harness/knobs.hpp),
  /// and returns its result. A config_error stops the run as a malformed
  /// library knob does in the constructor: "<bench>: <message>", exit 2.
  template <typename Read>
  auto read_knobs(Read&& read) const -> decltype(read()) {
    try {
      return read();
    } catch (const config_error& e) {
      config_exit(e);
    }
  }

  /// Register a named scalar. Names must be unique within a run; returns
  /// `value` so measurements can be registered inline.
  double metric(const std::string& name, double value,
                const std::string& unit = "");

  /// Register a host-dependent scalar (events/sec, wall-clock rates...).
  /// Host metrics live under a separate "host_metrics" JSON key, are never
  /// folded into baselines, and are omitted entirely under
  /// --deterministic — so perf telemetry can ride along without breaking
  /// byte-identity guarantees.
  double host_metric(const std::string& name, double value,
                     const std::string& unit = "");

  /// Register host-timing statistics over per-repetition wall-clock
  /// samples (seconds): `<prefix>.p50/.p90/.p99` (nearest-rank percentiles
  /// on a sorted copy) and `<prefix>.stddev` (population). Host metrics
  /// like host_metric(): never folded into baselines, omitted entirely
  /// under --deterministic. No-op on an empty sample set.
  void host_timing(const std::string& prefix, std::vector<double> samples);

  /// Register a metric *and* check it against a paper band. Returns the
  /// verdict (also folded into the exit code at finish()).
  bool expect(const std::string& metric_name, double actual, Band band,
              const std::string& source, const std::string& unit = "");

  /// Boolean claim (stored as a 0/1 metric with a Boolean band).
  bool expect_true(const std::string& metric_name, bool ok,
                   const std::string& source);

  /// Record the simulator's op-cost cache counters under the standard names
  /// `<bench>.cost_cache.{hits,misses,hit_rate}` (CI greps for the
  /// hit_rate suffix). Plain doubles keep the harness decoupled from
  /// sxs::Cpu; counters are deterministic, so the metrics are gate-safe.
  void cost_cache_counters(double hits, double misses);

  /// True when SX4NCAR_BENCH_FULL is set — recorded in the JSON so the
  /// gate can refuse to compare quick-mode results to full-mode baselines.
  bool full_mode() const { return full_mode_; }

  /// Default location for the Chrome trace a bench may emit in
  /// SX4NCAR_TRACE=full mode: <results>/<name>.trace.json, where <results> is
  /// $SX4NCAR_BENCH_RESULTS_DIR (default bench/results).
  std::string trace_path() const { return aux_path("trace.json"); }

  /// Path for an auxiliary artifact riding along with the result JSON:
  /// <results>/<name>.<suffix> (e.g. design_sweep's full report).
  std::string aux_path(const std::string& suffix) const {
    return results_dir_ + "/" + name_ + "." + suffix;
  }

  const std::string& name() const { return name_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& host_metrics() const { return host_metrics_; }
  const std::vector<Expectation>& expectations() const {
    return expectations_;
  }

  /// Result document in the result-v1 schema (what finish() writes).
  Json result_json() const;

  /// Print the verdict block, write (or --list) the JSON, and return the
  /// process exit code.
  int finish(std::ostream& os);

private:
  [[noreturn]] void config_exit(const config_error& e) const;

  std::string name_;
  bool full_mode_ = false;
  bool list_ = false;
  bool deterministic_ = false;
  std::string json_path_;
  std::string results_dir_;
  std::string host_execution_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Metric> metrics_;
  std::vector<Metric> host_metrics_;
  std::vector<Expectation> expectations_;
};

}  // namespace ncar::bench
