#include "util/timer_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.h"

namespace rbcast::util {

std::uint16_t TimerQueue::bucket_for(std::uint64_t key) const {
  // `| 1` maps key == cursor_ to level 0 without a branch.
  const int level = (std::bit_width((key ^ cursor_) | 1) - 1) / 8;
  const auto index = static_cast<int>((key >> (8 * level)) & 0xFF);
  return static_cast<std::uint16_t>(level * kBuckets + index);
}

int TimerQueue::first_bucket(int level) const {
  const auto& words = occupied_[static_cast<std::size_t>(level)];
  for (std::size_t w = 0; w < words.size(); ++w) {
    if (words[w] != 0) {
      return static_cast<int>(w) * 64 + std::countr_zero(words[w]);
    }
  }
  RBCAST_ASSERT_MSG(false, "level mask names an empty level");
  return 0;
}

std::uint64_t TimerQueue::bucket_start(int level, int index) const {
  const int shift = 8 * level;
  const std::uint64_t above =
      level == kLevels - 1 ? 0 : cursor_ >> (shift + 8) << (shift + 8);
  return above | (static_cast<std::uint64_t>(index) << shift);
}

void TimerQueue::link(std::uint32_t slot, std::uint16_t bucket) {
  Slot& s = slots_[slot];
  Bucket& b = buckets_[bucket];
  s.bucket = bucket;
  s.prev = b.tail;
  s.next = kNone;
  if (b.tail == kNone) {
    b.head = slot;
    const int level = bucket / kBuckets;
    const int index = bucket % kBuckets;
    occupied_[static_cast<std::size_t>(level)]
             [static_cast<std::size_t>(index / 64)] |= std::uint64_t{1}
                                                       << (index % 64);
    levels_ = static_cast<std::uint8_t>(levels_ | (1u << level));
  } else {
    slots_[b.tail].next = slot;
  }
  b.tail = slot;
}

void TimerQueue::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  Bucket& b = buckets_[s.bucket];
  if (s.prev == kNone) {
    b.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNone) {
    b.tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (b.head == kNone) mark_empty(s.bucket / kBuckets, s.bucket % kBuckets);
}

void TimerQueue::mark_empty(int level, int index) {
  auto& words = occupied_[static_cast<std::size_t>(level)];
  words[static_cast<std::size_t>(index / 64)] &=
      ~(std::uint64_t{1} << (index % 64));
  if ((words[0] | words[1] | words[2] | words[3]) == 0) {
    levels_ = static_cast<std::uint8_t>(levels_ & ~(1u << level));
  }
}

void TimerQueue::cascade(int level, int index) {
  // Every level below `level` is empty and the cursor moves to the start
  // of this bucket, so each timer in it re-files strictly lower; walking
  // the list in order appends each one behind those already moved, which
  // keeps every destination bucket in insertion order.
  const auto bucket = static_cast<std::uint16_t>(level * kBuckets + index);
  std::uint32_t slot = buckets_[bucket].head;
  buckets_[bucket] = Bucket{};
  mark_empty(level, index);
  cursor_ = bucket_start(level, index);
  while (slot != kNone) {
    const std::uint32_t next = slots_[slot].next;
    const std::uint16_t to = bucket_for(slots_[slot].key);
    RBCAST_PARANOID_ASSERT(to / kBuckets < level);
    link(slot, to);
    slot = next;
  }
}

std::uint32_t TimerQueue::acquire_slot() {
  if (free_head_ == kNone) {
    RBCAST_ASSERT_MSG(slots_.size() < kNone, "timer slab exhausted");
    free_head_ = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();  // analyze:allow(hot-alloc) slab growth to the peak live-timer count; recycled through the free list afterwards
  }
  const std::uint32_t slot = free_head_;
  Slot& s = slots_[slot];
  free_head_ = s.next;
  if (++s.check == 0) s.check = 1;  // 0 would make a handle of value 0
  return slot;
}

void TimerQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action = nullptr;
  s.bucket = kFree;
  s.prev = kNone;
  s.next = free_head_;
  free_head_ = slot;
  --live_;
  RBCAST_PARANOID_ASSERT(live_ <= slots_.size());
}

EventId TimerQueue::schedule(TimePoint t, Action action) {
  RBCAST_ASSERT_MSG(action != nullptr, "null timer action");
  const std::uint64_t key = key_of(t);
  RBCAST_ASSERT_MSG(key >= cursor_,
                    "timer scheduled before the last popped time");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.key = key;
  link(slot, bucket_for(key));
  ++live_;
  return EventId{(std::uint64_t{s.check} << 32) | slot};
}

bool TimerQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value);
  const auto check = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.bucket == kFree || s.check != check) return false;
  unlink(slot);
  release_slot(slot);
  return true;
}

TimerQueue::Fired TimerQueue::take(std::uint32_t slot) {
  Slot& s = slots_[slot];
  unlink(slot);
  Fired fired{time_of(s.key), std::move(s.action)};
  release_slot(slot);
  return fired;
}

TimePoint TimerQueue::next_time() const {
  RBCAST_ASSERT_MSG(levels_ != 0, "next_time() on empty queue");
  const int level = std::countr_zero(levels_);
  const int index = first_bucket(level);
  if (level == 0) {
    return time_of((cursor_ & ~std::uint64_t{0xFF}) |
                   static_cast<std::uint64_t>(index));
  }
  std::uint64_t earliest = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t slot = buckets_[static_cast<std::size_t>(
           level * kBuckets + index)].head;
       slot != kNone; slot = slots_[slot].next) {
    earliest = std::min(earliest, slots_[slot].key);
  }
  return time_of(earliest);
}

TimerQueue::Fired TimerQueue::pop() {
  RBCAST_ASSERT_MSG(!empty(), "pop() on empty queue");
  return std::move(*pop_due(std::numeric_limits<TimePoint>::max()));
}

std::optional<TimerQueue::Fired> TimerQueue::pop_due(TimePoint t) {
  const std::uint64_t limit = key_of(t);
  while (levels_ != 0) {
    const int level = std::countr_zero(levels_);
    const int index = first_bucket(level);
    const Bucket& b = buckets_[static_cast<std::size_t>(level * kBuckets +
                                                        index)];
    if (level == 0) {
      const std::uint64_t key = (cursor_ & ~std::uint64_t{0xFF}) |
                                static_cast<std::uint64_t>(index);
      if (key > limit) return std::nullopt;
      cursor_ = key;
      return take(b.head);
    }
    if (bucket_start(level, index) > limit) return std::nullopt;
    if (b.head == b.tail) {
      // A lone timer is the earliest one: fire it in place instead of
      // re-filing it. Moving the cursor to its key keeps every other
      // timer's level, since they all differ from it at `level` or above.
      const std::uint64_t key = slots_[b.head].key;
      if (key > limit) return std::nullopt;
      cursor_ = key;
      return take(b.head);
    }
    cascade(level, index);
  }
  return std::nullopt;
}

}  // namespace rbcast::util
