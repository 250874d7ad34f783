#include "common/units.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ncar {

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds < 0) seconds = 0;
  // Decide the layout from the value *rounded at display precision*, so
  // 59.996 renders as "1m 00.0s" rather than snprintf carrying it past the
  // unit boundary into "60.00s".
  if (std::round(seconds * 100.0) / 100.0 < 60.0) {
    std::snprintf(buf, sizeof buf, "%.2fs", seconds);
    return buf;
  }
  const double rounded = std::round(seconds * 10.0) / 10.0;
  const long total = static_cast<long>(rounded);
  const long h = total / 3600;
  const long m = (total % 3600) / 60;
  const double s = rounded - static_cast<double>(h * 3600 + m * 60);
  if (h > 0) {
    std::snprintf(buf, sizeof buf, "%ldh %02ldm %04.1fs", h, m, s);
  } else {
    std::snprintf(buf, sizeof buf, "%ldm %04.1fs", m, s);
  }
  return buf;
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::string format_round_trip(double v) {
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];  // the shortest form of any double needs at most 24
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace ncar
