// Property tests for the DES event calendar (ISSUE 6 satellite): random
// schedule/cancel/reschedule batteries must pop in nondecreasing
// (time, priority, fifo) order with FIFO tie-break, the heap invariant and
// id map must hold after every single operation, and memory must stay
// bounded by the live event count (true removal, no tombstones). All
// randomness is seeded std::mt19937_64 — never wall clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "des/calendar.hpp"

namespace {

using ncar::Seconds;
using ncar::des::Calendar;
using ncar::des::Event;
using ncar::des::EventId;
using ncar::des::EventKey;

bool key_le(const EventKey& a, const EventKey& b) { return !(b < a); }

TEST(CalendarTest, PopsInTimeOrder) {
  Calendar cal;
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> time(0.0, 1000.0);
  for (int i = 0; i < 500; ++i) cal.schedule(Seconds(time(rng)), [] {});
  double prev = -1.0;
  while (!cal.empty()) {
    const Event ev = cal.pop();
    EXPECT_GE(ev.key.time.value(), prev);
    prev = ev.key.time.value();
  }
}

TEST(CalendarTest, SameTimePopsFifo) {
  Calendar cal;
  // All at the same instant, same priority: strict submission order.
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    cal.schedule(Seconds(5.0), [i, &order] { order.push_back(i); });
  }
  while (!cal.empty()) cal.pop().fn();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(CalendarTest, LowerPriorityValuePopsFirstAtSameTime) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(Seconds(1.0), 5, [&] { order.push_back(5); });
  cal.schedule(Seconds(1.0), -3, [&] { order.push_back(-3); });
  cal.schedule(Seconds(1.0), 0, [&] { order.push_back(0); });
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{-3, 0, 5}));
}

TEST(CalendarTest, CancelIsTrueRemoval) {
  Calendar cal;
  const EventId a = cal.schedule(Seconds(1.0), [] {});
  const EventId b = cal.schedule(Seconds(2.0), [] {});
  EXPECT_EQ(cal.size(), 2u);
  EXPECT_TRUE(cal.cancel(a));
  EXPECT_EQ(cal.size(), 1u);           // no tombstone left behind
  EXPECT_FALSE(cal.cancel(a));         // stale handle
  EXPECT_FALSE(cal.pending(a));
  EXPECT_TRUE(cal.pending(b));
  EXPECT_EQ(cal.pop().id.id, b.id);
  EXPECT_FALSE(cal.cancel(b));         // already popped
}

TEST(CalendarTest, RescheduleMovesAndTakesFreshFifoPosition) {
  Calendar cal;
  std::vector<char> order;
  const EventId a = cal.schedule(Seconds(1.0), [&] { order.push_back('a'); });
  cal.schedule(Seconds(1.0), [&] { order.push_back('b'); });
  // Rescheduling a to the same time must put it *behind* b — identical
  // ordering to cancel + schedule.
  EXPECT_TRUE(cal.reschedule(a, Seconds(1.0)));
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
}

TEST(CalendarTest, RescheduleStaleHandleFails) {
  Calendar cal;
  const EventId a = cal.schedule(Seconds(1.0), [] {});
  EXPECT_TRUE(cal.cancel(a));
  EXPECT_FALSE(cal.reschedule(a, Seconds(2.0)));
}

TEST(CalendarTest, ReusedSlotRetiresTheOldHandle) {
  Calendar cal;
  const EventId old = cal.schedule(Seconds(1.0), [] {});
  ASSERT_TRUE(cal.validate());
  EXPECT_TRUE(cal.cancel(old));
  ASSERT_TRUE(cal.validate());
  // The new event takes the freed slot under a new generation.
  const EventId fresh = cal.schedule(Seconds(2.0), [] {});
  ASSERT_TRUE(cal.validate());
  EXPECT_EQ(static_cast<std::uint32_t>(fresh.id),
            static_cast<std::uint32_t>(old.id));
  EXPECT_FALSE(fresh == old);
  EXPECT_FALSE(cal.cancel(old));
  ASSERT_TRUE(cal.validate());
  EXPECT_FALSE(cal.pending(old));
  ASSERT_TRUE(cal.validate());
  EXPECT_FALSE(cal.reschedule(old, Seconds(0.5)));
  ASSERT_TRUE(cal.validate());
  // The stale handle touched nothing: the new event is intact.
  EXPECT_TRUE(cal.pending(fresh));
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_EQ(cal.next_time().value(), 2.0);
  EXPECT_EQ(cal.pop().id, fresh);
  ASSERT_TRUE(cal.validate());
  EXPECT_FALSE(cal.pending(fresh));
  EXPECT_FALSE(cal.pending(EventId{}));
}

// The battery: 5000 random schedule/cancel/reschedule/pop operations;
// validate() (heap order on every edge + id-map consistency) must hold
// after every op, and the drain at the end must come out in key order
// with exactly the surviving events.
TEST(CalendarTest, RandomOperationBatteryKeepsInvariants) {
  Calendar cal;
  std::mt19937_64 rng(0xDE5C0DE);
  std::uniform_real_distribution<double> time(0.0, 100.0);
  std::uniform_int_distribution<int> prio(-2, 2);
  std::uniform_int_distribution<int> op(0, 99);
  std::vector<EventId> live;
  std::size_t popped = 0, scheduled = 0;

  for (int step = 0; step < 5000; ++step) {
    const int o = op(rng);
    if (o < 50 || live.empty()) {
      live.push_back(cal.schedule(Seconds(time(rng)), prio(rng), [] {}));
      ++scheduled;
    } else if (o < 70) {
      const std::size_t i = rng() % live.size();
      EXPECT_TRUE(cal.cancel(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (o < 85) {
      const std::size_t i = rng() % live.size();
      EXPECT_TRUE(cal.reschedule(live[i], Seconds(time(rng))));
    } else if (!cal.empty()) {
      const Event ev = cal.pop();
      ++popped;
      const auto it = std::find_if(
          live.begin(), live.end(),
          [&](const EventId& id) { return id.id == ev.id.id; });
      ASSERT_NE(it, live.end());
      live.erase(it);
    }
    ASSERT_TRUE(cal.validate()) << "after step " << step;
    ASSERT_EQ(cal.size(), live.size());
  }

  // Drain: nondecreasing full keys, exactly the live set, invariant held
  // after every pop.
  EventKey prev{Seconds(-1.0), 0, 0};
  while (!cal.empty()) {
    const Event ev = cal.pop();
    ++popped;
    EXPECT_TRUE(key_le(prev, ev.key));
    prev = ev.key;
    ASSERT_TRUE(cal.validate());
  }
  EXPECT_EQ(cal.scheduled(), scheduled);
  EXPECT_EQ(cal.popped(), popped);
  EXPECT_EQ(cal.scheduled(), cal.popped() + cal.cancelled());
}

// Memory boundedness: a churn loop (schedule + cancel) must never grow
// the container — the year-scale guarantee that cancelled events do not
// accumulate as tombstones.
TEST(CalendarTest, ChurnDoesNotAccumulate) {
  Calendar cal;
  cal.schedule(Seconds(50.0), [] {});
  for (int i = 0; i < 100000; ++i) {
    const EventId id =
        cal.schedule(Seconds(static_cast<double>(i % 100)), [] {});
    EXPECT_TRUE(cal.cancel(id));
    EXPECT_EQ(cal.size(), 1u);
  }
  EXPECT_EQ(cal.cancelled(), 100000u);
}

TEST(CalendarTest, PopOnEmptyThrows) {
  Calendar cal;
  EXPECT_THROW(cal.pop(), ncar::precondition_error);
  EXPECT_THROW(cal.next_key(), ncar::precondition_error);
}

}  // namespace
