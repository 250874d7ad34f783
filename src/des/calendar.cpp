#include "des/calendar.hpp"

#include <limits>
#include <utility>

#include "common/error.hpp"

namespace ncar::des {

EventId Calendar::schedule(Seconds time, int priority,
                           std::function<void()> fn) {
  NCAR_REQUIRE(static_cast<bool>(fn), "event needs a handler");
  std::uint32_t s = 0;
  if (free_slots_.empty()) {
    NCAR_REQUIRE(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "too many pending events");
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  Entry e;
  e.key = EventKey{time, priority, next_fifo_++};
  e.id = EventId{std::uint64_t{slots_[s].generation} << 32 | s};
  e.fn = std::move(fn);
  const EventId id = e.id;
  heap_.push_back(std::move(e));
  sift_up(heap_.size() - 1);
  ++scheduled_;
  return id;
}

const Calendar::Slot* Calendar::find(EventId id) const {
  const std::uint32_t s = slot_index(id);
  if (s >= slots_.size() || slots_[s].generation != id.id >> 32) {
    return nullptr;
  }
  return &slots_[s];
}

void Calendar::release(EventId id) {
  const std::uint32_t s = slot_index(id);
  if (++slots_[s].generation == 0) slots_[s].generation = 1;
  free_slots_.push_back(s);
}

bool Calendar::cancel(EventId id) {
  const Slot* slot = find(id);
  if (slot == nullptr) return false;
  Entry dropped;
  remove_at(slot->heap_index, dropped);
  release(id);
  ++cancelled_;
  return true;
}

bool Calendar::reschedule(EventId id, Seconds time) {
  const Slot* slot = find(id);
  if (slot == nullptr) return false;
  // The event keeps its slot, so `id` stays valid.
  Entry e;
  remove_at(slot->heap_index, e);
  e.key.time = time;
  e.key.fifo = next_fifo_++;  // fresh FIFO position, like cancel + schedule
  heap_.push_back(std::move(e));
  sift_up(heap_.size() - 1);
  return true;
}

Event Calendar::pop() {
  NCAR_REQUIRE(!heap_.empty(), "pop on an empty calendar");
  Entry e;
  remove_at(0, e);
  release(e.id);
  ++popped_;
  return Event{e.key, e.id, std::move(e.fn)};
}

const EventKey& Calendar::next_key() const {
  NCAR_REQUIRE(!heap_.empty(), "next_key on an empty calendar");
  return heap_.front().key;
}

void Calendar::place(std::size_t i, Entry&& e) {
  slots_[slot_index(e.id)].heap_index = static_cast<std::uint32_t>(i);
  heap_[i] = std::move(e);
}

void Calendar::sift_up(std::size_t i) {
  Entry e = std::move(heap_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(e.key < heap_[parent].key)) break;
    place(i, std::move(heap_[parent]));
    i = parent;
  }
  place(i, std::move(e));
}

void Calendar::sift_down(std::size_t i) {
  Entry e = std::move(heap_[i]);
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
    if (!(heap_[child].key < e.key)) break;
    place(i, std::move(heap_[child]));
    i = child;
  }
  place(i, std::move(e));
}

void Calendar::remove_at(std::size_t i, Entry& out) {
  out = std::move(heap_[i]);
  const std::size_t last = heap_.size() - 1;
  if (i != last) {
    place(i, std::move(heap_[last]));
    heap_.pop_back();
    // The moved-in entry may need to go either way relative to `i`.
    if (i > 0 && heap_[i].key < heap_[(i - 1) / 2].key) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  } else {
    heap_.pop_back();
  }
}

bool Calendar::validate() const {
  if (slots_.size() - free_slots_.size() != heap_.size()) return false;
  std::vector<bool> taken(slots_.size(), false);
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Slot* slot = find(heap_[i].id);
    if (slot == nullptr || slot->heap_index != i) return false;
    taken[slot_index(heap_[i].id)] = true;
    if (i > 0 && heap_[i].key < heap_[(i - 1) / 2].key) return false;
    if (!heap_[i].fn) return false;
  }
  for (const std::uint32_t s : free_slots_) {
    if (s >= slots_.size() || taken[s]) return false;
    taken[s] = true;
  }
  return true;
}

}  // namespace ncar::des
