#include "sim/event_queue.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::sim {

namespace {
// Below this size the heap is left alone: compacting tiny heaps would churn
// for no measurable memory win.
constexpr std::size_t kMinCompactSize = 64;
}  // namespace

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ == kNoSlot) {
    RBCAST_ASSERT_MSG(slots_.size() < kNoSlot, "event slab exhausted");
    free_head_ = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();  // analyze:allow(hot-alloc) slab growth to the peak live-event count; recycled through the free list afterwards
  }
  const std::uint32_t slot = free_head_;
  Slot& s = slots_[slot];
  free_head_ = s.next_free;
  s.next_free = kNoSlot;
  if (++s.check == 0) s.check = 1;  // 0 would make a handle of value 0
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action = nullptr;
  s.seq = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId EventQueue::schedule(TimePoint t, Action action) {
  RBCAST_ASSERT_MSG(action != nullptr, "null event action");
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.seq = seq;
  heap_.push_back(Entry{t, seq, slot});  // analyze:allow(hot-alloc) amortized heap growth, bounded by compaction at 2x live
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++live_;
  RBCAST_PARANOID_ASSERT(live_ <= slots_.size());
  RBCAST_PARANOID_ASSERT(heap_.size() >= live_);
  return EventId{(std::uint64_t{s.check} << 32) | slot};
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value);
  const auto check = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.seq == 0 || s.check != check) return false;
  release_slot(slot);
  --live_;
  maybe_compact();
  RBCAST_PARANOID_ASSERT(live_ <= slots_.size());
  RBCAST_PARANOID_ASSERT(heap_.size() >= live_);
  return true;
}

void EventQueue::maybe_compact() {
  // Compact once tombstones outnumber live entries. Each compaction is
  // O(heap) but at least half the heap is dead when it runs, so the cost
  // amortizes to O(1) per cancellation.
  if (heap_.size() < kMinCompactSize || heap_.size() - live_ <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  RBCAST_PARANOID_ASSERT(heap_.size() == live_);
}

void EventQueue::skip_cancelled() const {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
}

TimePoint EventQueue::next_time() const {
  skip_cancelled();
  RBCAST_ASSERT_MSG(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::take_front() {
  const Entry top = heap_.front();
  RBCAST_ASSERT(live(top));
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
  Fired fired{top.time, std::move(slots_[top.slot].action)};
  release_slot(top.slot);
  --live_;
  RBCAST_PARANOID_ASSERT(live_ <= slots_.size());
  RBCAST_PARANOID_ASSERT(heap_.size() >= live_);
  return fired;
}

EventQueue::Fired EventQueue::pop() {
  skip_cancelled();
  RBCAST_ASSERT_MSG(!heap_.empty(), "pop() on empty queue");
  return take_front();
}

std::optional<EventQueue::Fired> EventQueue::pop_due(TimePoint t) {
  skip_cancelled();
  if (heap_.empty() || heap_.front().time > t) return std::nullopt;
  return take_front();
}

}  // namespace rbcast::sim
