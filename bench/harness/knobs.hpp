#pragma once
// Strict parsers for the SX4NCAR_* knobs the bench mains read themselves
// (the library knobs SX4NCAR_HOST_THREADS, SX4NCAR_SIMD and SX4NCAR_TRACE
// have their own parsers in src/). Unset or empty selects the fallback;
// any other value the knob does not accept throws ncar::config_error with
// a message naming the knob, the value and what the knob accepts. Bench
// mains read their knobs through BenchReporter::read_knobs, which turns
// that error into exit 2. An SX4NCAR_* name that is not in kKnownKnobs is
// an error too (BenchReporter's constructor checks the environment).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ncar::bench {

/// Every SX4NCAR_* environment variable the tree reads: the library knobs
/// and the bench mains' own, sorted.
extern const std::array<std::string_view, 16> kKnownKnobs;

/// Throws config_error naming the first SX4NCAR_* variable in `env` (a
/// null-terminated array of "NAME=value" strings, like environ) that is
/// not in kKnownKnobs, and the known name nearest to it.
void reject_unknown_knobs(const char* const* env);

/// Any non-empty string (a path or a directory).
std::string knob_string(const char* name, const std::string& fallback);

/// A finite decimal number greater than zero.
double knob_positive(const char* name, double fallback);

/// A decimal integer 0 .. 2^64-1.
std::uint64_t knob_uint64(const char* name, std::uint64_t fallback);

/// Exactly one of `choices`.
std::string knob_choice(const char* name, const std::string& fallback,
                        const std::vector<std::string>& choices);

/// A comma-separated list of finite decimal numbers greater than zero.
std::vector<double> knob_positive_list(const char* name,
                                       std::vector<double> fallback);

}  // namespace ncar::bench
