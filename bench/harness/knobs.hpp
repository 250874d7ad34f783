#pragma once
// Strict parsers for the SX4NCAR_* knobs the bench mains read themselves
// (the library knobs SX4NCAR_HOST_THREADS, SX4NCAR_SIMD and SX4NCAR_TRACE
// have their own parsers in src/). Unset or empty selects the fallback;
// any other value the knob does not accept throws ncar::config_error with
// a message naming the knob, the value and what the knob accepts. Bench
// mains read their knobs through BenchReporter::read_knobs, which turns
// that error into exit 2.

#include <cstdint>
#include <string>
#include <vector>

namespace ncar::bench {

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
