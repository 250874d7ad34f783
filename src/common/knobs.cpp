#include "common/knobs.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace ncar::knobs {

namespace {

/// Index of the row named `name`, or kKnobs.size() when there is none.
std::size_t row_index(std::string_view name) {
  return static_cast<std::size_t>(
      std::find_if(kKnobs.begin(), kKnobs.end(),
                   [&](const Knob& k) { return k.name == name; }) -
      kKnobs.begin());
}

[[noreturn]] void reject(const Knob& k, std::string_view value,
                         const std::string& accepted) {
  throw config_error(std::string(k.name) + "=" + std::string(value) +
                     " is invalid: expected " + accepted +
                     ", or unset/empty for the default");
}

/// Parses all of `text` as a decimal T. A double is a positive kind's
/// value, so it must also be finite and above 0.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  const bool positive = !std::is_floating_point_v<T> ||
                        (std::isfinite(static_cast<double>(out)) && out > 0);
  return ec == std::errc() && end == last && positive;
}

/// True when `value` is one of the '|'-separated `choices`.
bool is_choice(std::string_view choices, std::string_view value) {
  for (std::string_view rest = choices;;) {
    const std::size_t bar = rest.find('|');
    if (rest.substr(0, bar) == value) return true;
    if (bar == std::string_view::npos) return false;
    rest.remove_prefix(bar + 1);
  }
}

/// The number a non-empty `value` of row `k` holds: the value of a
/// Positive or IntRange row, 0 for the others. Throws config_error when
/// the row does not accept `value`.
double checked(const Knob& k, std::string_view value) {
  if (k.kind == Kind::Positive) {
    double out = 0;
    if (!parse_number(value, out)) {
      reject(k, value, "a decimal number above 0");
    }
    return out;
  }
  if (k.kind == Kind::IntRange) {
    int out = 0;
    if (!parse_number(value, out) || out < k.lo || out > k.hi) {
      reject(k, value,
             "a decimal integer " + std::to_string(k.lo) + ".." +
                 std::to_string(k.hi));
    }
    return out;
  }
  if (k.kind == Kind::Choice && !is_choice(k.choices, value)) {
    std::string list = "one of ";
    for (const char c : k.choices) {
      list += c == '|' ? std::string(" | ") : std::string(1, c);
    }
    reject(k, value, list);
  }
  return 0;
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

Settings::Settings(const char* const* env) {
  constexpr std::string_view kPrefix = "SX4NCAR_";
  for (; env != nullptr && *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (entry.substr(0, kPrefix.size()) != kPrefix) continue;
    const std::size_t eq = entry.find('=');
    const std::string_view name = entry.substr(0, eq);
    const std::size_t i = row_index(name);
    if (i == kKnobs.size()) {
      const auto nearest = std::min_element(
          kKnobs.begin(), kKnobs.end(), [&](const Knob& x, const Knob& y) {
            return edit_distance(name, x.name) < edit_distance(name, y.name);
          });
      throw config_error(std::string(name) +
                         " is not a known knob (nearest known name: " +
                         std::string(nearest->name) + ")");
    }
    values_[i] = eq == std::string_view::npos ? "" : entry.substr(eq + 1);
    if (!values_[i].empty()) numbers_[i] = checked(kKnobs[i], values_[i]);
  }
}

std::size_t Settings::row(std::string_view name, Kind kind) const {
  const std::size_t i = row_index(name);
  NCAR_REQUIRE(i < kKnobs.size(),
               std::string(name) + " is not a row of the knob table");
  NCAR_REQUIRE(kKnobs[i].kind == kind,
               std::string(name) + " is read as another kind than its row's");
  return i;
}

std::string Settings::string(std::string_view name,
                             const std::string& fallback) const {
  const std::size_t i = row(name, Kind::String);
  return values_[i].empty() ? fallback : values_[i];
}

double Settings::positive(std::string_view name, double fallback) const {
  const std::size_t i = row(name, Kind::Positive);
  return values_[i].empty() ? fallback : numbers_[i];
}

int Settings::int_range(std::string_view name, int fallback) const {
  const std::size_t i = row(name, Kind::IntRange);
  return values_[i].empty() ? fallback : static_cast<int>(numbers_[i]);
}

std::string Settings::choice(std::string_view name,
                             const std::string& fallback) const {
  const std::size_t i = row(name, Kind::Choice);
  return values_[i].empty() ? fallback : values_[i];
}

const Settings& process() {
  static const Settings settings(environ);
  return settings;
}

}  // namespace ncar::knobs
