#pragma once
// Unit conversions and text formatting: rates, durations, numbers and
// JSON strings.
//
// The paper reports results in MB/s, Mflops, Gflops, Mcalls/s, and
// minutes:seconds; these helpers keep the bench output in the same units.

#include <string>
#include <string_view>

#include "common/quantity.hpp"

namespace ncar {

inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;

/// Bytes/second -> MB/s (decimal megabytes, as the paper uses).
inline double to_mb_per_s(double bytes_per_s) { return bytes_per_s / kMega; }
inline double to_mb_per_s(BytesPerSec rate) { return rate.value() / kMega; }

/// Flops/second -> Mflops.
inline double to_mflops(double flops_per_s) { return flops_per_s / kMega; }
inline double to_mflops(FlopsPerSec rate) { return rate.value() / kMega; }

/// Flops/second -> Gflops.
inline double to_gflops(double flops_per_s) { return flops_per_s / kGiga; }
inline double to_gflops(FlopsPerSec rate) { return rate.value() / kGiga; }

/// Format seconds as "Hh MMm SS.Ss" / "MMm SS.Ss" / "SS.Ss".
std::string format_duration(double seconds);
inline std::string format_duration(Seconds s) {
  return format_duration(s.value());
}

/// Format a double with `digits` significant decimals, fixed notation.
std::string format_fixed(double value, int digits);

/// Text that parses back to exactly `v`: integral values below 2^53
/// without a decimal point, everything else in std::to_chars' shortest
/// form. Callers render non-finite values their own way first (the
/// machine tables print "inf", bench JSON writes null).
std::string format_round_trip(double v);

/// `s` as a JSON string literal: quoted, with '"', '\\' and control
/// characters escaped.
std::string json_quoted(std::string_view s);

}  // namespace ncar
