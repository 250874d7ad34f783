#pragma once
// The event calendar: an indexed binary heap of pending events.
//
// This replaces the ad-hoc drain-clock loops that used to live in
// src/prodload and src/iosim: every logical process schedules its next
// state change as an event, and one heap orders all of them. The design
// follows the OMNeT++ event-set contract (see DESIGN.md section 9):
//
//   * pop order is nondecreasing (time, priority, fifo) — deterministic
//     FIFO tie-break, never dependent on heap internals;
//   * cancel and reschedule are O(log n) true removals (each event owns a
//     slot that holds its heap index through every sift), so memory stays
//     bounded by the number of *live* events — no tombstones that a
//     year-scale run would accumulate. A freed slot goes on a free list and
//     bumps its generation, so a handle to the event that held it goes
//     stale;
//   * validate() checks the heap invariant and the slot table after any
//     operation; the property tests call it after every single op.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event.hpp"

namespace ncar::des {

class Calendar {
public:
  /// Schedule `fn` at absolute time `time`. Lower `priority` values pop
  /// first among same-time events; equal priorities pop FIFO.
  EventId schedule(Seconds time, int priority, std::function<void()> fn);
  EventId schedule(Seconds time, std::function<void()> fn) {
    return schedule(time, 0, std::move(fn));
  }

  /// Remove a pending event. Returns false when the handle is stale (the
  /// event already fired or was cancelled).
  bool cancel(EventId id);

  /// Move a pending event to `time`, keeping its priority and handler but
  /// taking a fresh FIFO position (identical ordering to cancel +
  /// schedule). Returns false on a stale handle.
  bool reschedule(EventId id, Seconds time);

  /// Pop the earliest event (by the full key). Precondition: !empty().
  Event pop();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Key of the event pop() would return next. Precondition: !empty().
  const EventKey& next_key() const;
  Seconds next_time() const { return next_key().time; }

  /// True when the event is still pending.
  bool pending(EventId id) const { return find(id) != nullptr; }

  // --- lifetime counters (deterministic; the year bench reports them) -----
  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::uint64_t popped() const { return popped_; }

  /// Full structural check: heap order on every parent/child edge plus
  /// slot-table consistency. O(n); meant for tests, not hot paths.
  bool validate() const;

private:
  struct Entry {
    EventKey key;
    EventId id;
    std::function<void()> fn;
  };
  /// An event's slot: its heap index while the event is pending. Freeing a
  /// slot bumps its generation, which retires every handle issued for it.
  struct Slot {
    std::uint32_t generation = 1;
    std::uint32_t heap_index = 0;
  };

  static std::uint32_t slot_index(EventId id) {
    return static_cast<std::uint32_t>(id.id);
  }
  /// The slot of a pending event, nullptr for a stale or null handle.
  const Slot* find(EventId id) const;

  /// Free the slot of a popped or cancelled event.
  void release(EventId id);

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(std::size_t i, Entry&& e);
  void remove_at(std::size_t i, Entry& out);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_fifo_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t popped_ = 0;
};

}  // namespace ncar::des
