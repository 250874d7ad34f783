#include "trace/collector.hpp"

#include "trace/stream/sink.hpp"

namespace ncar::trace {

void Collector::span(Category c, double start, double ticks,
                     const char* tag) {
  if (stream_ == nullptr) return;
  if (ticks <= 0) return;  // zero-width boxes only clutter the timeline
  if (!spans_enabled(mode())) return;
  stream_->record(c, start, ticks, tag);
}

void Collector::add(Category c, double start, double ticks,
                    const char* tag) {
  count_total(ticks);
  count(c, ticks);
  span(c, start, ticks, tag);
}

const char* Collector::intern(std::string_view name) {
  // Linear scan: tag cardinality is small (job names, device labels), and
  // interning only happens on span-producing paths.
  for (const std::string& s : interned_) {
    if (s == name) return s.c_str();
  }
  interned_.emplace_back(name);
  return interned_.back().c_str();
}

void Collector::reset() {
  total_ = 0;
  for (double& c : category_) c = 0;
  if (stream_ != nullptr) stream_->on_reset();
}

}  // namespace ncar::trace
