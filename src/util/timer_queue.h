// Pending-timer set shared by both schedulers: sim::Simulator's event queue
// and util::RealTimeScheduler's timer list.
//
// An exact-order hierarchical timing wheel (a radix-256 heap). A timer's
// key is the order-preserving uint64 image of its TimePoint. There are 8
// levels of 256 buckets; a timer sits at the level of the highest base-256
// digit in which its key differs from `cursor_`, in the bucket named by
// that digit. The cursor is never later than any pending key, so level L
// holds only keys above every key of the levels below it, and within a
// level the bucket index orders the keys. A 256-bit occupancy mask per
// level plus an 8-bit level mask find the earliest bucket in a few
// count-trailing-zeros steps.
//
// A pop takes the head of the lowest occupied level-0 bucket: every key
// there equals the cursor's upper digits plus the bucket index, so all of
// them are the same time. When level 0 is empty, the lowest occupied
// bucket of the lowest occupied level is cascaded: the cursor moves to the
// start of that bucket and its timers are re-filed, in list order, into
// the (empty) lower levels. A timer cascades at most seven times over its
// life; schedule, cancel and pop are O(1) apart from that.
//
// Simultaneous timers fire in the order they were scheduled (the
// (time, insertion) tie-break the simulator's determinism rests on).
// Each bucket is an intrusive FIFO list threaded through the timer slots.
// A direct schedule appends the newest timer, and a cascade runs only when
// every lower level is empty, so it appends into empty buckets in the
// source bucket's order; by induction every bucket stays in insertion
// order, and equal keys always share one bucket. DESIGN.md §19 has the
// argument in full.
//
// Contract: a timer may not be scheduled before the last popped time, nor
// before the limit of a pop_due() call that found nothing due (the cursor
// never moves past that limit, so the caller can schedule at it). Both
// schedulers satisfy this because their clocks never run backwards.
//
// Actions live in a slab: a slot vector with an intrusive free list. A
// slot is recycled after its timer fires or is cancelled, so a steady-state
// run schedules without touching the allocator; the slab grows only to the
// peak live count. Cancelling unlinks the slot from its bucket in O(1), so
// no tombstones are left behind.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/scheduler.h"
#include "util/time.h"

namespace rbcast::util {

class TimerQueue {
 public:
  using Action = std::function<void()>;

  // Schedules `action` at absolute time `t`, no earlier than the last
  // popped time. Returns a handle usable with cancel(). The handle packs
  // (check << 32 | slot): the check is bumped every time the slot is
  // reused, so a handle to a timer that already fired or was cancelled is
  // rejected even after its slot went to a newer timer. Checks start at 1,
  // so a real handle is never 0. Precondition: action is non-null.
  EventId schedule(TimePoint t, Action action);

  // Cancels a pending timer. Returns false if it already fired or was
  // already cancelled. O(1).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Action slots allocated, live + free: the slab never shrinks, so this
  // is the peak number of simultaneously pending timers.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  // Time of the earliest pending timer; only valid when !empty(). Reads the
  // earliest bucket without cascading it: O(1) when that bucket is at
  // level 0 or holds one timer, a walk of that bucket otherwise.
  [[nodiscard]] TimePoint next_time() const;

  struct Fired {
    TimePoint time;
    Action action;
  };

  // Removes and returns the earliest pending timer; only when !empty().
  Fired pop();

  // Removes and returns the earliest pending timer if it is due at or
  // before `t`; nullopt when the queue is empty or the next timer is later.
  // Never moves the cursor past `t`.
  std::optional<Fired> pop_due(TimePoint t);

 private:
  static constexpr int kLevels = 8;
  static constexpr int kBuckets = 256;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint16_t kFree = 0xFFFF;  // Slot::bucket when free

  struct Slot {
    Action action;
    std::uint64_t key{0};
    std::uint32_t check{0};  // bumped per occupant; the EventId's high half
    std::uint32_t prev{kNone};
    std::uint32_t next{kNone};  // the free list's link while free
    std::uint16_t bucket{kFree};  // level * 256 + index while pending
  };

  struct Bucket {
    std::uint32_t head{kNone};
    std::uint32_t tail{kNone};
  };

  // Order-preserving image of a signed time: flipping the sign bit maps
  // INT64_MIN..INT64_MAX onto 0..UINT64_MAX.
  static std::uint64_t key_of(TimePoint t) {
    return static_cast<std::uint64_t>(t) ^ (std::uint64_t{1} << 63);
  }
  static TimePoint time_of(std::uint64_t key) {
    return static_cast<TimePoint>(key ^ (std::uint64_t{1} << 63));
  }

  // The bucket (level * 256 + index) `key` belongs in for the current
  // cursor. Precondition: key >= cursor_.
  [[nodiscard]] std::uint16_t bucket_for(std::uint64_t key) const;
  // Lowest occupied bucket of a level known to be occupied.
  [[nodiscard]] int first_bucket(int level) const;
  // First key bucket (level, index) can hold under the current cursor.
  [[nodiscard]] std::uint64_t bucket_start(int level, int index) const;

  void link(std::uint32_t slot, std::uint16_t bucket);
  void unlink(std::uint32_t slot);
  // Clears the occupancy bits of a bucket that just became empty.
  void mark_empty(int level, int index);
  void cascade(int level, int index);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  Fired take(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::array<Bucket, kLevels * kBuckets> buckets_{};
  std::array<std::array<std::uint64_t, kBuckets / 64>, kLevels> occupied_{};
  std::uint8_t levels_{0};  // bit L set iff level L has an occupied bucket
  std::uint64_t cursor_{0};
  std::uint32_t free_head_{kNone};
  std::size_t live_{0};
};

}  // namespace rbcast::util
