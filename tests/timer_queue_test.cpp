#include "util/timer_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace rbcast::util {
namespace {

TEST(TimerQueue, PopsInTimeOrder) {
  TimerQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(TimerQueue, SimultaneousEventsFireInScheduleOrder) {
  TimerQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(TimerQueue, CancelPreventsFiring) {
  TimerQueue q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(TimerQueue, CancelTwiceReturnsFalse) {
  TimerQueue q;
  const EventId id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(TimerQueue, CancelAfterFireReturnsFalse) {
  TimerQueue q;
  const EventId id = q.schedule(10, [] {});
  q.pop().action();
  EXPECT_FALSE(q.cancel(id));
}

TEST(TimerQueue, StaleHandleIsRejectedAfterSlotReuse) {
  // Firing and cancelling free an action slot that the next schedule()
  // reuses; handles to the old occupants must not reach the new one.
  TimerQueue q;
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

TEST(TimerQueue, StaleHandleIsRejectedAfterTheNewOccupantCascades) {
  // The slot's new occupant sits far out and is re-filed by a cascade
  // before the stale handle is tried; only its own handle reaches it.
  TimerQueue q;
  const EventId stale = q.schedule(10, [] {});
  q.pop();
  const EventId occupant = q.schedule(4'000'100, [] {});
  q.schedule(4'000'000, [] {});
  q.schedule(4'000'000, [] {});
  EXPECT_EQ(q.pop().time, 4'000'000);  // cascades the shared bucket
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(occupant));
  EXPECT_EQ(q.pop().time, 4'000'000);
  EXPECT_TRUE(q.empty());
}

TEST(TimerQueue, RejectsHandlesItNeverIssued) {
  TimerQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  q.schedule(10, [] {});
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{(std::uint64_t{1} << 32) | 7}));
  EXPECT_EQ(q.size(), 1u);
}

TEST(TimerQueue, PopDueStopsAtTheLimit) {
  TimerQueue q;
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

TEST(TimerQueue, PopDueLeavesRoomToScheduleUpToItsLimit) {
  // The simulator runs to t, sets its clock to t and schedules at t: the
  // queue's cursor must not have moved past t looking for the next event.
  TimerQueue q;
  q.schedule(100, [] {});
  EXPECT_FALSE(q.pop_due(10).has_value());
  q.schedule(20, [] {});
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.pop_due(1000)->time, 20);
  EXPECT_EQ(q.pop_due(1000)->time, 100);

  // Again with the next events far enough out that pop_due cascades their
  // bucket before it finds nothing due.
  q.schedule(3'000'000, [] {});
  q.schedule(3'000'001, [] {});
  EXPECT_FALSE(q.pop_due(2'999'999).has_value());
  q.schedule(2'999'999, [] {});
  EXPECT_EQ(q.pop().time, 2'999'999);
}

TEST(TimerQueue, NextTimeSkipsCancelled) {
  TimerQueue q;
  const EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(TimerQueue, NextTimeReadsTheEarliestOfAFarBucket) {
  // Three timers share one high-level bucket, the earliest neither first
  // nor last in it; next_time() must not take the bucket's head.
  TimerQueue q;
  q.schedule(0, [] {});
  q.pop();
  q.schedule(70'000, [] {});
  q.schedule(66'000, [] {});
  q.schedule(69'000, [] {});
  EXPECT_EQ(q.next_time(), 66'000);
  EXPECT_EQ(q.pop().time, 66'000);
}

TEST(TimerQueue, SizeCountsLiveEventsOnly) {
  TimerQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(TimerQueue, PopReturnsScheduledTime) {
  TimerQueue q;
  q.schedule(42, [] {});
  EXPECT_EQ(q.pop().time, 42);
}

TEST(TimerQueue, OrdersNegativeAndExtremeTimes) {
  TimerQueue q;
  std::vector<TimePoint> fired;
  constexpr TimePoint kMax = std::numeric_limits<TimePoint>::max();
  constexpr TimePoint kMin = std::numeric_limits<TimePoint>::min();
  for (TimePoint t : {kMax, TimePoint{5}, TimePoint{-5}, kMin, TimePoint{0}}) {
    q.schedule(t, [] {});
  }
  while (!q.empty()) fired.push_back(q.pop().time);
  EXPECT_EQ(fired, (std::vector<TimePoint>{kMin, -5, 0, 5, kMax}));
}

TEST(TimerQueue, FifoSurvivesCascadesMixedWithDirectInserts) {
  // a and b are filed at a high level, c joins their bucket directly; a
  // cascade then moves all three into level 0, where d is appended
  // directly. Equal times must still fire a, b, c, d.
  TimerQueue q;
  std::vector<char> fired;
  q.schedule(10, [] {});
  q.pop();
  q.schedule(1000, [&] { fired.push_back('a'); });
  q.schedule(1000, [&] { fired.push_back('b'); });
  q.schedule(999, [] {});
  q.schedule(1000, [&] { fired.push_back('c'); });
  EXPECT_EQ(q.pop().time, 999);  // cascades the bucket holding a, b, c
  q.schedule(1000, [&] { fired.push_back('d'); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(TimerQueueDeathTest, RejectsSchedulingBeforeTheLastPoppedTime) {
  TimerQueue q;
  q.schedule(10, [] {});
  q.pop();
  EXPECT_DEATH(q.schedule(9, [] {}), "before the last popped time");
}

TEST(TimerQueue, MatchesAnOrderedSetUnderRandomOperations) {
  // Differential check against the (time, insertion) order the queue
  // promises, kept by a std::set. Delays run from 0 to past 2^24 us with a
  // tail out to 2^40, so keys differ from the cursor in up to six base-256
  // digits and cascades cross several levels; zero delays and re-used
  // pending times make equal-time ties between timers filed at different
  // levels.
  TimerQueue q;
  Rng rng(20240615);
  std::set<std::pair<TimePoint, std::uint64_t>> reference;
  struct Issued {
    EventId id;
    TimePoint time;
    std::uint64_t seq;
  };
  std::vector<Issued> issued;
  TimePoint now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t popped_seq = 0;
  std::uint64_t pops = 0;
  std::uint64_t cancels = 0;

  const auto delay = [&rng]() -> TimePoint {
    const auto pick = rng.uniform_int(0, 99);
    if (pick < 10) return 0;
    if (pick < 40) return rng.uniform_int(0, 255);
    if (pick < 65) return rng.uniform_int(0, 1 << 16);
    if (pick < 95) return rng.uniform_int(0, 1 << 26);
    return rng.uniform_int(0, std::int64_t{1} << 40);
  };

  for (int op = 0; op < 200000; ++op) {
    const auto pick = rng.uniform_int(0, 99);
    if (pick < 45 || reference.empty()) {
      TimePoint t = now + delay();
      if (pick < 8 && !reference.empty()) {
        // Tie with a pending timer, whatever level it sits at.
        const Issued& other = issued[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
        if (other.time >= now) t = other.time;
      }
      const std::uint64_t seq = next_seq++;
      const EventId id =
          q.schedule(t, [&popped_seq, seq] { popped_seq = seq; });
      reference.emplace(t, seq);
      issued.push_back(Issued{id, t, seq});
    } else if (pick < 60) {
      const Issued& target = issued[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1))];
      const bool pending = reference.erase({target.time, target.seq}) == 1;
      ASSERT_EQ(q.cancel(target.id), pending) << "op " << op;
      cancels += pending ? 1 : 0;
    } else {
      const TimePoint limit = now + delay();
      auto fired = q.pop_due(limit);
      if (reference.empty() || reference.begin()->first > limit) {
        ASSERT_FALSE(fired.has_value()) << "op " << op;
        now = limit;
      } else {
        ASSERT_TRUE(fired.has_value()) << "op " << op;
        const auto [time, seq] = *reference.begin();
        reference.erase(reference.begin());
        ASSERT_EQ(fired->time, time) << "op " << op;
        fired->action();
        ASSERT_EQ(popped_seq, seq) << "op " << op;
        now = time;
        ++pops;
      }
    }
    ASSERT_EQ(q.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(q.next_time(), reference.begin()->first) << "op " << op;
    }
  }
  // Drain: whatever is left comes out in reference order.
  while (!reference.empty()) {
    auto fired = q.pop();
    fired.action();
    ASSERT_EQ(fired.time, reference.begin()->first);
    ASSERT_EQ(popped_seq, reference.begin()->second);
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(q.empty());
  EXPECT_GT(pops, 10000u);
  EXPECT_GT(cancels, 1000u);
}

TEST(TimerQueue, ManyInterleavedOperations) {
  TimerQueue q;
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
}  // namespace rbcast::util
