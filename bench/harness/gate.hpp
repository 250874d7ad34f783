#pragma once
// bench_gate — diff a results directory against the committed baselines
// and roll the verdict up into one BENCH_SUMMARY.json.
//
// The logic lives in this library (run_gate) so the unit tests can drive
// it on fixtures; bench/bench_gate.cpp is a thin argv wrapper.

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/json.hpp"

namespace ncar::bench {

/// Symmetric relative tolerance of every baseline comparison. The model is
/// deterministic, so it only absorbs cross-platform libm and codegen
/// differences; the summary records it as `rel_tol`.
inline constexpr double kGateRelTol = 0.02;

struct GateOptions {
  std::string results_dir;    ///< directory of bench result JSONs
  std::string baselines_dir;  ///< directory of committed baseline JSONs
  std::string summary_path;   ///< roll-up output; empty = don't write
  bool update_baselines = false;  ///< rewrite baselines from results
};

/// Per-bench verdict in the roll-up.
struct GateEntry {
  std::string bench;
  /// "ok", "regressed", "missing-result", "expectation-failed",
  /// "no-baseline", "invalid-result"
  std::string status;
  int metrics_checked = 0;
  int regressed = 0;
  int missing_metrics = 0;
  int expectations_failed = 0;
  std::vector<std::string> notes;  ///< one line per problem
};

struct GateReport {
  std::vector<GateEntry> entries;
  bool ok = true;
  Json summary() const;
};

/// Run the gate. Returns the process exit code: 0 = all baselines matched
/// and all recorded expectations passed; 1 = regression, missing metric,
/// missing result, or failed expectation; 2 = unusable configuration
/// (missing directories, unwritable summary or baseline).
///
/// With `update_baselines` set, instead rewrites
/// `<baselines_dir>/<bench>.json` from every result in `results_dir`
/// (host-dependent fields dropped) and returns 0. A result that does not
/// read as one fails the update (exit 1, naming the file) before any
/// baseline is written.
int run_gate(const GateOptions& opts, std::ostream& log,
             GateReport* out_report = nullptr);

}  // namespace ncar::bench
