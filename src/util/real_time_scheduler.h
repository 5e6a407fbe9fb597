// RealTimeScheduler — util::Scheduler over the wall clock and poll(2).
//
// The real-network counterpart of sim::Simulator: the same now/after/cancel
// surface the protocol layer runs on, but `now()` reads CLOCK_MONOTONIC
// (microseconds since construction, so real traces start near t=0 exactly
// like simulated ones) and the run loop blocks in poll() until the next
// timer deadline or a watched file descriptor becomes readable. Transports
// register their sockets with watch_fd(); timers and fd callbacks all fire
// on the single thread that calls run_for()/run_until() — no locks, no
// background threads, no global state.
//
// Timers live in the same util::TimerQueue as the simulator's events, so
// the ordering is the same: earliest deadline first, FIFO among equal
// deadlines. Wall-clock firing is of course only as punctual as the OS
// makes it; the contract is "not before the deadline, as soon after as the
// loop gets scheduled".
#pragma once

#include <poll.h>

#include <functional>
#include <map>
#include <vector>

#include "util/scheduler.h"
#include "util/time.h"
#include "util/timer_queue.h"

namespace rbcast::util {

class RealTimeScheduler final : public Scheduler {
 public:
  using FdCallback = std::function<void()>;

  RealTimeScheduler();
  ~RealTimeScheduler() override;

  RealTimeScheduler(const RealTimeScheduler&) = delete;
  RealTimeScheduler& operator=(const RealTimeScheduler&) = delete;

  // Microseconds of CLOCK_MONOTONIC elapsed since construction.
  [[nodiscard]] TimePoint now() const override;

  EventId after(Duration d, Action action) override;
  bool cancel(EventId id) override;

  // Invokes `on_readable` (from inside the run loop) whenever `fd` is
  // readable. One callback per fd; watching an already-watched fd replaces
  // the callback.
  void watch_fd(int fd, FdCallback on_readable);
  void unwatch_fd(int fd);

  // Runs timers and fd callbacks until the wall clock reaches `t` (in
  // this scheduler's epoch). Returns when the deadline passes; callbacks
  // in flight complete first.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now() + d); }

  // Makes the innermost run_until() return after the current callback.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending_timers() const { return timers_.size(); }

 private:
  // Fires every timer whose deadline has passed; returns the delay until
  // the next pending deadline (or `horizon` if that is sooner / no timer).
  Duration fire_due_timers(Duration horizon);

  // Rebuilds poll_set_ from watched_; only watch_fd/unwatch_fd call it.
  void rebuild_poll_set();

  TimePoint epoch_{0};  // CLOCK_MONOTONIC µs at construction
  TimerQueue timers_;
  // Sorted so the poll set is built in a reproducible fd order.
  std::map<int, FdCallback> watched_;
  // The poll(2) array: watched_'s fds in order, kept between loop turns.
  std::vector<pollfd> poll_set_;
  bool stopped_{false};
};

}  // namespace rbcast::util
