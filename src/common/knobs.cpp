#include "common/knobs.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <type_traits>

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

[[noreturn]] void reject(std::string_view name, const std::string& value,
                         const std::string& accepted) {
  throw config_error(std::string(name) + "=" + value +
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
    const std::size_t row = row_index(name);
    if (row == kKnobs.size()) {
      const auto nearest = std::min_element(
          kKnobs.begin(), kKnobs.end(), [&](const Knob& x, const Knob& y) {
            return edit_distance(name, x.name) < edit_distance(name, y.name);
          });
      throw config_error(std::string(name) +
                         " is not a known knob (nearest known name: " +
                         std::string(nearest->name) + ")");
    }
    values_[row] = eq == std::string_view::npos ? "" : entry.substr(eq + 1);
  }
}

std::pair<const Knob&, const char*> Settings::read(std::string_view name,
                                                   Kind kind) const {
  const std::size_t i = row_index(name);
  NCAR_REQUIRE(i < kKnobs.size(),
               std::string(name) + " is not a row of the knob table");
  NCAR_REQUIRE(kKnobs[i].kind == kind,
               std::string(name) + " is read as another kind than its row's");
  return {kKnobs[i], values_[i].empty() ? nullptr : values_[i].c_str()};
}

std::string Settings::string(std::string_view name,
                             const std::string& fallback) const {
  const char* v = read(name, Kind::String).second;
  return v != nullptr ? std::string(v) : fallback;
}

double Settings::positive(std::string_view name, double fallback) const {
  const char* v = read(name, Kind::Positive).second;
  if (v == nullptr) return fallback;
  double out = 0;
  if (!parse_number(v, out)) reject(name, v, "a decimal number above 0");
  return out;
}

std::uint64_t Settings::uint64(std::string_view name,
                               std::uint64_t fallback) const {
  const char* v = read(name, Kind::Uint64).second;
  if (v == nullptr) return fallback;
  std::uint64_t out = 0;
  if (!parse_number(v, out)) {
    reject(name, v, "a decimal integer 0..18446744073709551615");
  }
  return out;
}

int Settings::int_range(std::string_view name, int fallback) const {
  const auto [row, v] = read(name, Kind::IntRange);
  if (v == nullptr) return fallback;
  int out = 0;
  if (!parse_number(v, out) || out < row.lo || out > row.hi) {
    reject(name, v,
           "a decimal integer " + std::to_string(row.lo) + ".." +
               std::to_string(row.hi));
  }
  return out;
}

std::string Settings::choice(std::string_view name,
                             const std::string& fallback,
                             const std::vector<std::string>& choices) const {
  const auto [row, v] = read(name, Kind::Choice);
  NCAR_REQUIRE(row.choices.empty() != choices.empty(),
               std::string(name) +
                   ": the choices come from the row or the caller");
  std::vector<std::string> accepted = choices;
  for (std::string_view rest = row.choices; !rest.empty();) {
    const std::size_t bar = std::min(rest.find('|'), rest.size());
    accepted.emplace_back(rest.substr(0, bar));
    rest.remove_prefix(std::min(bar + 1, rest.size()));
  }
  if (v == nullptr) return fallback;
  if (std::find(accepted.begin(), accepted.end(), v) != accepted.end()) {
    return v;
  }
  std::string list = "one of ";
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    list += (i == 0 ? "" : " | ") + accepted[i];
  }
  reject(name, v, list);
}

std::vector<double> Settings::positive_list(
    std::string_view name, std::vector<double> fallback) const {
  const char* v = read(name, Kind::PositiveList).second;
  if (v == nullptr) return fallback;
  const std::string_view s(v);
  std::vector<double> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = s.find(',', pos);
    double item = 0;
    if (!parse_number(s.substr(pos, comma - pos), item)) {
      reject(name, v, "a comma list of decimal numbers above 0");
    }
    out.push_back(item);
    if (comma == std::string_view::npos) return out;
    pos = comma + 1;
  }
}

const Settings& process() {
  static const Settings settings(environ);
  return settings;
}

}  // namespace ncar::knobs
