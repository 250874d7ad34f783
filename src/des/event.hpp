#pragma once
// Event-calendar primitives for the discrete-event simulation kernel.
//
// An event is a callback scheduled at an absolute simulated time with a
// small integer priority. The calendar pops events in nondecreasing
// (time, priority, fifo) order: earlier time first, then lower priority
// value, then admission order (FIFO). The fifo counter is assigned at
// schedule time and refreshed by a reschedule, so a rescheduled event
// behaves exactly like cancel-then-schedule at its new time.
//
// EventId is an opaque handle that stays valid until the event fires or is
// cancelled; a default-constructed id never names a live event.

#include <cstdint>
#include <functional>

#include "common/quantity.hpp"

namespace ncar::des {

/// Handle to a scheduled event: the calendar slot the event occupies in the
/// low 32 bits and the slot's generation, never 0, in the high 32. A slot
/// freed by a pop or cancel takes the next generation before it is reused,
/// so a stale handle is always detected (until one slot is reused 2^32
/// times).
struct EventId {
  std::uint64_t id = 0;  ///< 0 == "no event"

  constexpr bool valid() const { return id != 0; }
  friend constexpr bool operator==(EventId a, EventId b) {
    return a.id == b.id;
  }
};

/// The strict weak order of the calendar, exposed so tests can assert it.
struct EventKey {
  Seconds time{};
  int priority = 0;       ///< lower value pops first at equal time
  std::uint64_t fifo = 0; ///< admission order breaks remaining ties

  friend constexpr bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.fifo < b.fifo;
  }
};

/// A popped calendar entry: the key it was ordered by, its handle, and the
/// handler to run.
struct Event {
  EventKey key;
  EventId id;
  std::function<void()> fn;
};

}  // namespace ncar::des
