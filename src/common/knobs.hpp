#pragma once
// The knob table: every SX4NCAR_* environment variable the tree reads,
// declared, parsed and checked in one place (DESIGN.md section 4.4).
//
// The environment is read once, on first use, and checked whole: an
// SX4NCAR_* name that is not a row throws config_error naming the nearest
// row, and a value its row does not accept throws config_error "NAME=value
// is invalid: expected <accepted>, or unset/empty for the default". A
// typed read returns the caller's fallback when the variable is unset or
// empty. knobs.cpp is the only reader of the environment (sxlint
// `knob-table`).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace ncar::knobs {

enum class Kind : std::uint8_t {
  String,    ///< any non-empty string (a path or a directory)
  Positive,  ///< a finite decimal number above 0
  IntRange,  ///< a decimal integer lo..hi
  Choice,    ///< exactly one of the row's names
};

struct Knob {
  std::string_view name;
  Kind kind;
  std::string_view doc;
  /// Choice: the accepted names, '|'-separated.
  std::string_view choices = {};
  /// IntRange: the accepted bounds.
  int lo = 0;
  int hi = 0;
};

/// Every knob, sorted by name. A doc ends with its reader's default.
inline constexpr std::array<Knob, 7> kKnobs{{
    {"SX4NCAR_BENCH_RESULTS_DIR", Kind::String,
     "bench mains: directory of result JSON and artifacts (bench/results)"},
    {"SX4NCAR_HOST_THREADS", Kind::IntRange,
     "host threads of the global pool (hardware width; 0 and 1 run inline)",
     {}, 0, 1024},
    {"SX4NCAR_SIMD", Kind::Choice,
     "host SIMD backend; an unsupported one clamps to the best (auto)",
     "scalar|sse42|avx2|avx512|auto"},
    {"SX4NCAR_SWEEP_KERNEL", Kind::Choice,
     "design_sweep: probe kernel (radabs)", "radabs|hint|vfft"},
    {"SX4NCAR_SWEEP_REPORT", Kind::String,
     "design_sweep: report path (<results>/design_sweep.report.json)"},
    {"SX4NCAR_TRACE", Kind::Choice,
     "tracing mode (off)", "off|summary|full|stream"},
    {"SX4NCAR_YEAR_DAYS", Kind::Positive,
     "prodload_year: simulated horizon in days (365)"},
}};

/// The SX4NCAR_* settings of one environment, checked against kKnobs.
/// Reading a name that is not a row, or a row as another kind, is a
/// precondition_error: the table is the declaration.
class Settings {
public:
  /// Reads `env`, a null-terminated array of "NAME=value" strings like
  /// environ (nullptr is an empty environment). Throws config_error
  /// naming the first SX4NCAR_* name that is not a row (and the nearest
  /// row), or the first value its row does not accept (and what it
  /// accepts). A typed read of the result never throws config_error.
  explicit Settings(const char* const* env);

  std::string string(std::string_view name, const std::string& fallback) const;
  double positive(std::string_view name, double fallback) const;
  int int_range(std::string_view name, int fallback) const;
  /// One of the row's choices.
  std::string choice(std::string_view name, const std::string& fallback) const;

private:
  /// The index of the row `name` declares as `kind`.
  std::size_t row(std::string_view name, Kind kind) const;

  std::array<std::string, kKnobs.size()> values_;  ///< by row; "" = unset
  /// Positive and IntRange rows: the value, parsed and checked.
  std::array<double, kKnobs.size()> numbers_{};
};

/// The process environment's settings, read once on first use
/// (thread-safe). Throws config_error, again on every call, while the
/// environment names an SX4NCAR_* variable that is not a row, or holds a
/// value its row does not accept.
const Settings& process();

}  // namespace ncar::knobs
