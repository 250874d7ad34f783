#include "harness/knobs.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace ncar::bench {

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

}  // namespace

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
