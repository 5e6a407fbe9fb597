// Pending-event set for the discrete-event simulator.
//
// A binary heap keyed by (time, insertion sequence). The insertion-sequence
// tie-break makes simultaneous events fire in the order they were
// scheduled, which keeps runs deterministic. Cancellation is lazy: a
// cancelled entry stays in the heap as a tombstone and is skipped on pop,
// which makes cancel O(1) amortized — important because the protocol arms
// and disarms many acknowledgment timeouts.
//
// Actions live in a slab: a slot vector with an intrusive free list. A
// heap entry names its slot and carries its sequence number; it is live iff
// the slot still holds that sequence number, so firing or cancelling an
// event is "free the slot" and the heap entry turns into a tombstone by
// itself. Slots are recycled, so a steady-state run schedules without
// touching the allocator; the slab grows only to the peak live count.
//
// Tombstones are not allowed to accumulate without bound: when dead
// entries outnumber live ones the heap is compacted (dead entries filtered
// out, heap rebuilt). Rebuilding cannot disturb the firing order because
// the (time, seq) keys of live entries are untouched — the heap is only a
// different arrangement of the same totally ordered set. This keeps a long
// run with heavy timer arm/disarm churn at O(live) memory instead of
// O(total cancellations).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/time.h"
#include "util/scheduler.h"

namespace rbcast::sim {

// Handle type shared with the abstract util::Scheduler interface that
// Simulator implements (the protocol layer holds these without seeing the
// queue). The queue packs (check << 32 | slot) into it: the check value is
// bumped every time the slot is reused, so a handle to an event that
// already fired or was cancelled is rejected even after its slot went to
// a newer event. Checks start at 1, so a real handle is never 0.
using EventId = util::EventId;

class EventQueue {
 public:
  using Action = std::function<void()>;

  // Schedules `action` at absolute time `t`. Returns a handle usable with
  // cancel(). Precondition: action is non-null.
  EventId schedule(TimePoint t, Action action);

  // Cancels a pending event. Returns false if it already fired or was
  // already cancelled. O(1) amortized (tombstone + periodic compaction).
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  // Heap entries currently allocated, live + tombstones — exposed so tests
  // and benchmarks can assert that compaction bounds tombstone growth.
  [[nodiscard]] std::size_t backing_size() const { return heap_.size(); }

  // Action slots allocated, live + free: the slab never shrinks, so this
  // is the peak number of simultaneously pending events.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  // Time of the earliest pending event; only valid when !empty().
  [[nodiscard]] TimePoint next_time() const;

  struct Fired {
    TimePoint time;
    Action action;
  };

  // Removes and returns the earliest pending event; only when !empty().
  Fired pop();

  // Removes and returns the earliest pending event if it is due at or
  // before `t`; nullopt when the queue is empty or the next event is
  // later. One tombstone sweep per call, where next_time() + pop() would
  // take two — the simulator's run loop uses this.
  std::optional<Fired> pop_due(TimePoint t);

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    Action action;
    std::uint64_t seq{0};     // the occupant's sequence number; 0 when free
    std::uint32_t check{0};   // bumped per occupant; the EventId's high half
    std::uint32_t next_free{kNoSlot};
  };

  [[nodiscard]] bool live(const Entry& e) const {
    return slots_[e.slot].seq == e.seq;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  Fired take_front();
  void skip_cancelled() const;
  void maybe_compact();

  // Min-heap over Entry via std::greater (see operator> above), stored as
  // an explicit vector so compaction can filter and rebuild it in place.
  mutable std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
};

}  // namespace rbcast::sim
