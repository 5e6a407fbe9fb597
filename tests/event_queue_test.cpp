#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace rbcast::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  q.pop().action();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleHandleIsRejectedAfterSlotReuse) {
  // Firing and cancelling free an action slot that the next schedule()
  // reuses; handles to the old occupants must not reach the new one.
  EventQueue q;
  const EventId fired = q.schedule(10, [] {});
  q.pop().action();
  const EventId cancelled = q.schedule(20, [] {});
  ASSERT_TRUE(q.cancel(cancelled));
  bool ran = false;
  const EventId occupant = q.schedule(30, [&] { ran = true; });
  EXPECT_EQ(q.slot_count(), 1u);  // every event above shared one slot
  EXPECT_NE(occupant, fired);
  EXPECT_NE(occupant, cancelled);
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.size(), 1u);
  auto f = q.pop();
  EXPECT_EQ(f.time, 30);
  f.action();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, RejectsHandlesItNeverIssued) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  q.schedule(10, [] {});
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{(std::uint64_t{1} << 32) | 7}));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopDueStopsAtTheLimit) {
  EventQueue q;
  const EventId early = q.schedule(5, [] {});
  q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  auto first = q.pop_due(15);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->time, 10);
  EXPECT_FALSE(q.pop_due(15).has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_due(20)->time, 20);
  EXPECT_FALSE(q.pop_due(100).has_value());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopReturnsScheduledTime) {
  EventQueue q;
  q.schedule(42, [] {});
  EXPECT_EQ(q.pop().time, 42);
}

TEST(EventQueue, CompactionBoundsBackingStoreUnderChurn) {
  // The cancel-and-rearm pattern of the protocol's timers must not grow
  // the backing store without bound: tombstones are compacted away once
  // they outnumber live entries (above a small floor).
  EventQueue q;
  constexpr int kLive = 16;
  std::vector<EventId> ids;
  for (int i = 0; i < kLive; ++i) {
    ids.push_back(q.schedule(1000 + i, [] {}));
  }
  for (int round = 0; round < 10000; ++round) {
    const std::size_t slot = static_cast<std::size_t>(round % kLive);
    ASSERT_TRUE(q.cancel(ids[slot]));
    ids[slot] = q.schedule(1000 + round, [] {});
    EXPECT_EQ(q.size(), static_cast<std::size_t>(kLive));
    // size - live <= max(live, floor) at all times after maybe_compact.
    EXPECT_LE(q.backing_size(), 2u * std::max<std::size_t>(kLive, 64));
  }
  // Draining still fires exactly the live timers, in time order.
  int fired = 0;
  TimePoint last = -1;
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GE(f.time, last);
    last = f.time;
    ++fired;
  }
  EXPECT_EQ(fired, kLive);
}

TEST(EventQueue, CompactionPreservesFifoAmongSimultaneousEvents) {
  // Force a compaction between scheduling same-time events and draining:
  // the FIFO tie-break (sequence numbers) must survive the heap rebuild.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 64; ++i) {
    q.schedule(7, [&fired, i] { fired.push_back(i); });
  }
  std::vector<EventId> victims;
  for (int i = 0; i < 200; ++i) victims.push_back(q.schedule(9, [] {}));
  for (EventId id : victims) q.cancel(id);  // triggers compaction
  EXPECT_LT(q.backing_size(), 264u);
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 100; i += 2) q.cancel(ids[static_cast<size_t>(i)]);
  int fired = 0;
  TimePoint last = -1;
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GT(f.time, last);
    last = f.time;
    ++fired;
  }
  EXPECT_EQ(fired, 50);
}

}  // namespace
}  // namespace rbcast::sim
