#pragma once
// Stored benchmark baselines and regression comparison.
//
// A Baseline is the committed reference copy of one bench binary's result
// file (bench/baselines/<name>.json): the named scalar metrics it emitted
// on a known-good build. `compare_metrics` diffs a fresh run against it
// with a symmetric relative tolerance — the model is deterministic, so the
// tolerance only has to absorb cross-platform libm and codegen
// differences, not run-to-run noise.

#include <optional>
#include <string>
#include <vector>

#include "harness/json.hpp"

namespace ncar::bench {

/// One named scalar measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< optional, e.g. "MB/s", "s", "Mflops"

  bool operator==(const Metric& other) const {
    return name == other.name && value == other.value && unit == other.unit;
  }
};

struct Baseline {
  std::string bench;            ///< bench binary name, e.g. "table7_mom"
  std::vector<Metric> metrics;  ///< insertion order preserved

  const Metric* find(const std::string& name) const;

  Json to_json() const;
  static Baseline from_json(const Json& j);

  /// File I/O; load throws std::runtime_error on missing/invalid files.
  static Baseline load(const std::string& path);
  void save(const std::string& path) const;

  bool operator==(const Baseline& other) const {
    return bench == other.bench && metrics == other.metrics;
  }
};

/// Verdict for one baseline metric after comparison.
struct MetricDelta {
  enum class Status { Ok, Regressed, Missing };
  std::string name;
  double baseline = 0.0;
  double actual = 0.0;       ///< undefined when Missing
  double rel_change = 0.0;   ///< (actual - baseline) / |baseline|
  Status status = Status::Ok;
};

struct CompareResult {
  std::vector<MetricDelta> deltas;
  int regressed = 0;
  int missing = 0;
  bool ok() const { return regressed == 0 && missing == 0; }
};

/// Compare a fresh run's metrics against a baseline. Every baseline metric
/// must be present in `actual` and within `rel_tol` of its recorded value
/// (exact-zero baselines use an absolute tolerance of `rel_tol`). Metrics
/// present only in `actual` are ignored — new metrics are not regressions.
CompareResult compare_metrics(const Baseline& baseline,
                              const std::vector<Metric>& actual,
                              double rel_tol);

}  // namespace ncar::bench
