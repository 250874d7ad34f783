#pragma once
// Per-track cycle-attribution collector.
//
// One Collector instance backs one timeline track: a simulated Cpu, a node's
// runtime (barriers, idle, IXS waits), an I/O device clock, or the PRODLOAD
// scheduler. The owner is the single writer — a Cpu's collector is only
// touched by the rank charging that Cpu, which is exactly the discipline
// Node::parallel already imposes on the Cpu itself — so recording needs no
// synchronisation and is bit-identical under sequential and threaded host
// execution.
//
// Two recording tiers:
//   * aggregation counters (per-category tick totals plus a chronological
//     track total) are ALWAYS maintained — the off-mode cost is a couple of
//     double additions per charge;
//   * spans ({start, duration, category, tag}) are never stored here: in
//     Mode::Full and Mode::Stream they go to an attached streaming sink
//     (trace/stream/sink.hpp), the one path by which a span leaves a
//     Collector. With no sink attached, span() does nothing.
//
// Ticks are the owner's native time unit (cycles for Cpu/node tracks,
// seconds for device clocks); seconds_per_tick() declares the conversion so
// exporters can place every track on one microsecond timeline.

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>

#include "trace/category.hpp"

namespace ncar::trace {

namespace stream {
class TrackSink;
}  // namespace stream

class Collector {
public:
  /// `seconds_per_tick` converts this track's native unit to seconds
  /// (a Cpu passes its clock period; device clocks pass 1.0).
  explicit Collector(double seconds_per_tick = 1.0)
      : seconds_per_tick_(seconds_per_tick) {}

  // --- counters (always on) ----------------------------------------------
  /// Accumulate onto the chronological track total. Cpu mirrors every
  /// charge here with the *same* addition it applies to its cycle counter,
  /// so total_ticks() stays bit-identical to the owner's clock.
  void count_total(double ticks) { total_ += ticks; }
  /// Accumulate onto one category's counter (no total, no span).
  void count(Category c, double ticks) {
    category_[static_cast<std::size_t>(c)] += ticks;
  }

  // --- spans (Mode::Full and Mode::Stream) -------------------------------
  /// Forward a span to the attached streaming sink when the mode records
  /// spans; a no-op with no sink attached or a non-positive duration.
  /// The no-sink test is inline: every charge calls this.
  void span(Category c, double start, double ticks, const char* tag) {
    if (stream_ != nullptr) forward_span(c, start, ticks, tag);
  }

  /// Attach/detach the span destination. The sink must outlive every
  /// span() call that can see it; pass nullptr to detach.
  void set_stream_sink(stream::TrackSink* sink) { stream_ = sink; }

  /// Convenience for simple tracks: total + category counter + span.
  void add(Category c, double start, double ticks, const char* tag);

  // --- accessors ----------------------------------------------------------
  double total_ticks() const { return total_; }
  double category_ticks(Category c) const {
    return category_[static_cast<std::size_t>(c)];
  }
  double seconds_per_tick() const { return seconds_per_tick_; }

  /// Copy `name` into collector-owned stable storage (span tags outlive the
  /// strings they were built from; deque elements never move).
  const char* intern(std::string_view name);

  /// Zero the counters (interned tags are kept — they are evaluator
  /// details, like the op-cost caches). An attached streaming sink starts
  /// a new epoch, so spans recorded before the reset are not exported.
  void reset();

private:
  void forward_span(Category c, double start, double ticks, const char* tag);

  double seconds_per_tick_;
  double total_ = 0;
  double category_[kCategoryCount] = {};
  stream::TrackSink* stream_ = nullptr;
  std::deque<std::string> interned_;
};

}  // namespace ncar::trace
