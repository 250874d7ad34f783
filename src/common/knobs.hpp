#pragma once
// The knob table: every SX4NCAR_* environment variable the tree reads,
// declared, parsed and checked in one place (DESIGN.md section 4.4).
//
// The environment is read once, on first use, and an SX4NCAR_* name that
// is not a row throws config_error naming the nearest row. A typed read
// returns the caller's fallback when the variable is unset or empty, and
// throws config_error "NAME=value is invalid: expected <accepted>, or
// unset/empty for the default" for a value its row does not accept.
// knobs.cpp is the only reader of the environment (sxlint `knob-table`).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ncar::knobs {

enum class Kind : std::uint8_t {
  String,        ///< any non-empty string (a path or a directory)
  Positive,      ///< a finite decimal number above 0
  Uint64,        ///< a decimal integer 0..2^64-1
  IntRange,      ///< a decimal integer lo..hi
  Choice,        ///< exactly one of a set of names
  PositiveList,  ///< a comma list of finite decimal numbers above 0
};

struct Knob {
  std::string_view name;
  Kind kind;
  std::string_view doc;
  /// Choice: the accepted names, '|'-separated, when they are static;
  /// empty when the caller passes them (computed at run time).
  std::string_view choices = {};
  /// IntRange: the accepted bounds.
  int lo = 0;
  int hi = 0;
};

/// Every knob, sorted by name. A doc ends with its reader's default.
inline constexpr std::array<Knob, 15> kKnobs{{
    {"SX4NCAR_BENCH_FULL", Kind::String,
     "bench mains: set and non-empty runs the full sweeps (quick mode)"},
    {"SX4NCAR_BENCH_RESULTS_DIR", Kind::String,
     "bench mains: directory of result JSON and artifacts (bench/results)"},
    {"SX4NCAR_HOST_THREADS", Kind::IntRange,
     "host threads of the global pool (hardware width; 0 and 1 run inline)",
     {}, 0, 1024},
    {"SX4NCAR_SIMD", Kind::Choice,
     "host SIMD backend; an unsupported one clamps to the best (auto)",
     "scalar|sse42|avx2|avx512|auto"},
    {"SX4NCAR_SWEEP_BANKS", Kind::PositiveList,
     "design_sweep: memory-bank axis (256,512,1024,2048)"},
    {"SX4NCAR_SWEEP_BASE", Kind::Choice,
     "design_sweep: catalog machine the axes perturb (NEC SX-4/1)"},
    {"SX4NCAR_SWEEP_CLOCKS", Kind::PositiveList,
     "design_sweep: clock-period axis in ns (9.2,8)"},
    {"SX4NCAR_SWEEP_KERNEL", Kind::Choice,
     "design_sweep: probe kernel, radabs | hint | vfft (radabs)"},
    {"SX4NCAR_SWEEP_PIPES", Kind::PositiveList,
     "design_sweep: pipe-count axis (1,2,4,8,16,32)"},
    {"SX4NCAR_SWEEP_PORT", Kind::PositiveList,
     "design_sweep: port-width axis in bytes/clock (16,32,64,128,256)"},
    {"SX4NCAR_SWEEP_REPORT", Kind::String,
     "design_sweep: report path (<results>/design_sweep.report.json)"},
    {"SX4NCAR_SWEEP_VL", Kind::PositiveList,
     "design_sweep: vector-length axis (32,64,128,256,512)"},
    {"SX4NCAR_TRACE", Kind::Choice,
     "tracing mode (off)", "off|summary|full|stream"},
    {"SX4NCAR_YEAR_DAYS", Kind::Positive,
     "prodload_year: simulated horizon in days (365)"},
    {"SX4NCAR_YEAR_SEED", Kind::Uint64,
     "prodload_year: workload seed; 0 is the default registry seed (0)"},
}};

/// The SX4NCAR_* settings of one environment, checked against kKnobs.
/// Reading a name that is not a row, or a row as another kind, is a
/// precondition_error: the table is the declaration.
class Settings {
public:
  /// Reads `env`, a null-terminated array of "NAME=value" strings like
  /// environ (nullptr is an empty environment). Throws config_error
  /// naming the first SX4NCAR_* name that is not a row, and the nearest
  /// row.
  explicit Settings(const char* const* env);

  std::string string(std::string_view name, const std::string& fallback) const;
  double positive(std::string_view name, double fallback) const;
  std::uint64_t uint64(std::string_view name, std::uint64_t fallback) const;
  int int_range(std::string_view name, int fallback) const;
  /// One of the row's static choices, or of `choices` when the row has
  /// none.
  std::string choice(std::string_view name, const std::string& fallback,
                     const std::vector<std::string>& choices = {}) const;
  std::vector<double> positive_list(std::string_view name,
                                    std::vector<double> fallback) const;

private:
  /// The row `name` declares as `kind`, and its value: nullptr when the
  /// variable is unset or empty.
  std::pair<const Knob&, const char*> read(std::string_view name,
                                           Kind kind) const;

  std::array<std::string, kKnobs.size()> values_;  ///< by row; "" = unset
};

/// The process environment's settings, read once on first use
/// (thread-safe). Throws config_error, again on every call, while the
/// environment names an SX4NCAR_* variable that is not a row.
const Settings& process();

}  // namespace ncar::knobs
