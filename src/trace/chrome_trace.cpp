#include "trace/chrome_trace.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>

#include "trace/category.hpp"

namespace ncar::trace {

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan; traces never do
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void write_metadata(std::ostream& os, const char* kind, int pid, int tid,
                    std::string_view name, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << kind << R"(","ph":"M","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"args":{"name":)";
  write_escaped(os, name);
  os << "}}";
}

bool exported(const stream::TrackData& t) {
  return !(t.skip_if_empty && t.spans.empty());
}

}  // namespace

void write_chrome_trace(std::ostream& os, const stream::SxtFile& file) {
  os << "{\"traceEvents\":[\n";
  bool first = true;

  // Metadata: one process_name per distinct pid (first track wins) and
  // one thread_name per track.
  int last_named_pid = -1;
  for (const stream::TrackData& t : file.tracks) {
    if (!exported(t)) continue;
    if (t.pid != last_named_pid) {
      write_metadata(os, "process_name", t.pid, 0, t.process_name, first);
      last_named_pid = t.pid;
    }
    write_metadata(os, "thread_name", t.pid, t.tid, t.thread_name, first);
  }

  for (const stream::TrackData& t : file.tracks) {
    if (!exported(t)) continue;
    const double to_us = t.seconds_per_tick * 1e6;
    for (const stream::RawRecord& r : t.spans) {
      if (!first) os << ",\n";
      first = false;
      os << R"({"name":)";
      write_escaped(os, t.tags[r.tag]);
      os << R"(,"cat":")" << to_string(static_cast<Category>(r.category))
         << R"(","ph":"X","ts":)" << format_double(r.start * to_us)
         << R"(,"dur":)" << format_double(r.duration * to_us)
         << R"(,"pid":)" << t.pid << R"(,"tid":)" << t.tid << '}';
    }
  }
  os << "\n]}\n";
}

}  // namespace ncar::trace
