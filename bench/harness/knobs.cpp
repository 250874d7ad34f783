#include "harness/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace ncar::bench {

const std::array<std::string_view, 16> kKnownKnobs = {
    "SX4NCAR_BASELINE_DIR",
    "SX4NCAR_BENCH_FULL",
    "SX4NCAR_BENCH_RESULTS_DIR",
    "SX4NCAR_HOST_THREADS",
    "SX4NCAR_SIMD",
    "SX4NCAR_SWEEP_BANKS",
    "SX4NCAR_SWEEP_BASE",
    "SX4NCAR_SWEEP_CLOCKS",
    "SX4NCAR_SWEEP_KERNEL",
    "SX4NCAR_SWEEP_PIPES",
    "SX4NCAR_SWEEP_PORT",
    "SX4NCAR_SWEEP_REPORT",
    "SX4NCAR_SWEEP_VL",
    "SX4NCAR_TRACE",
    "SX4NCAR_YEAR_DAYS",
    "SX4NCAR_YEAR_SEED",
};

namespace {

/// The knob's value, or nullptr when it is unset or empty.
const char* value_of(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : nullptr;
}

[[noreturn]] void reject(const char* name, const std::string& value,
                         const std::string& accepted) {
  throw config_error(std::string(name) + "=" + value +
                     " is invalid: expected " + accepted +
                     ", or unset/empty for the default");
}

/// Parses all of `text` as a finite number greater than zero.
bool parse_positive(const std::string& text, double& out) {
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && end == last && std::isfinite(out) && out > 0.0;
}

/// Levenshtein distance between `a` and `b`.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({up + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

void reject_unknown_knobs(const char* const* env) {
  constexpr std::string_view kPrefix = "SX4NCAR_";
  for (; env != nullptr && *env != nullptr; ++env) {
    const std::string_view entry(*env);
    const std::string_view name = entry.substr(0, entry.find('='));
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    if (std::find(kKnownKnobs.begin(), kKnownKnobs.end(), name) !=
        kKnownKnobs.end()) {
      continue;
    }
    const auto nearest = std::min_element(
        kKnownKnobs.begin(), kKnownKnobs.end(),
        [&](std::string_view x, std::string_view y) {
          return edit_distance(name, x) < edit_distance(name, y);
        });
    throw config_error(std::string(name) +
                       " is not a known knob (nearest known name: " +
                       std::string(*nearest) + ")");
  }
}

std::string knob_string(const char* name, const std::string& fallback) {
  const char* v = value_of(name);
  return v != nullptr ? std::string(v) : fallback;
}

double knob_positive(const char* name, double fallback) {
  const char* v = value_of(name);
  if (v == nullptr) return fallback;
  double out = 0;
  if (!parse_positive(v, out)) reject(name, v, "a decimal number above 0");
  return out;
}

std::uint64_t knob_uint64(const char* name, std::uint64_t fallback) {
  const char* v = value_of(name);
  if (v == nullptr) return fallback;
  const char* const last = v + std::strlen(v);
  std::uint64_t out = 0;
  const auto [end, ec] = std::from_chars(v, last, out);
  if (ec != std::errc() || end != last) {
    reject(name, v, "a decimal integer 0..18446744073709551615");
  }
  return out;
}

std::string knob_choice(const char* name, const std::string& fallback,
                        const std::vector<std::string>& choices) {
  const char* v = value_of(name);
  if (v == nullptr) return fallback;
  for (const std::string& c : choices) {
    if (c == v) return c;
  }
  std::string accepted = "one of ";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    accepted += (i == 0 ? "" : " | ") + choices[i];
  }
  reject(name, v, accepted);
}

std::vector<double> knob_positive_list(const char* name,
                                       std::vector<double> fallback) {
  const char* v = value_of(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  std::vector<double> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = s.find(',', pos);
    double value = 0;
    if (!parse_positive(s.substr(pos, comma - pos), value)) {
      reject(name, s, "a comma list of decimal numbers above 0");
    }
    out.push_back(value);
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

}  // namespace ncar::bench
