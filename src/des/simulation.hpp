#pragma once
// Simulation — the DES kernel façade: one clock, one event calendar, one
// RNG registry.
//
// Logical processes (the prodload node, NQS queue complexes, the iosim
// device adapters, the synthetic workload generator) hold a Simulation&
// and talk to each other only through scheduled events, so simulated time
// advances monotonically no matter how many processes interleave. The
// clock is typed (Seconds); scheduling into the past is a precondition
// error, not a silent reordering.
//
// Determinism contract: with the same seed and the same sequence of
// schedule/cancel calls, run() executes the same events in the same order
// and every named RNG stream produces the same draws — independent of
// host threading, allocation addresses, or stream creation order. The
// tests in tests/des/ pin this.

#include <cstdint>
#include <string_view>

#include "des/calendar.hpp"
#include "des/rng.hpp"

namespace ncar::des {

class Simulation {
public:
  explicit Simulation(std::uint64_t seed = 0x5eed'5eed'5eed'5eedull)
      : rng_(seed) {}

  // --- clock ---------------------------------------------------------------
  Seconds now() const { return now_; }

  // --- scheduling ----------------------------------------------------------
  /// Schedule at an absolute time (>= now()).
  EventId at(Seconds time, std::function<void()> fn) {
    return at(time, 0, std::move(fn));
  }
  EventId at(Seconds time, int priority, std::function<void()> fn);
  /// Schedule `delay` after now().
  EventId in(Seconds delay, std::function<void()> fn) {
    return in(delay, 0, std::move(fn));
  }
  EventId in(Seconds delay, int priority, std::function<void()> fn);

  bool cancel(EventId id) { return calendar_.cancel(id); }
  bool reschedule(EventId id, Seconds time);

  // --- execution -----------------------------------------------------------
  /// Run until the calendar is empty or stop() is called. Returns the
  /// number of events executed by this call.
  std::uint64_t run();
  /// Execute every event with time <= `until`, then advance the clock to
  /// `until` (even if no event lands there). Returns events executed.
  std::uint64_t run_until(Seconds until);
  /// From inside a handler: stop after the current event completes.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Events executed over the simulation's lifetime (the year bench's
  /// events/sec denominator).
  std::uint64_t events_executed() const { return executed_; }

  // --- randomness ----------------------------------------------------------
  /// The named RNG stream (see des/rng.hpp for the independence contract).
  RngStream& rng(std::string_view name) { return rng_.stream(name); }

  Calendar& calendar() { return calendar_; }
  const Calendar& calendar() const { return calendar_; }

private:
  void execute(Event&& ev);

  Calendar calendar_;
  RngRegistry rng_;
  Seconds now_{};
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace ncar::des
