#include "util/real_time_scheduler.h"

#include <poll.h>
#include <time.h>

#include <algorithm>

#include "util/assert.h"

namespace rbcast::util {

namespace {

TimePoint monotonic_micros() {
  timespec ts{};
  RBCAST_ASSERT_MSG(clock_gettime(CLOCK_MONOTONIC, &ts) == 0,
                    "CLOCK_MONOTONIC unavailable");
  return static_cast<TimePoint>(ts.tv_sec) * 1'000'000 +
         static_cast<TimePoint>(ts.tv_nsec) / 1'000;
}

}  // namespace

RealTimeScheduler::RealTimeScheduler() : epoch_(monotonic_micros()) {}

RealTimeScheduler::~RealTimeScheduler() = default;

TimePoint RealTimeScheduler::now() const { return monotonic_micros() - epoch_; }

EventId RealTimeScheduler::after(Duration d, Action action) {
  RBCAST_CHECK_ARG(d >= 0, "cannot schedule in the past");
  RBCAST_CHECK_ARG(action != nullptr, "scheduled action must be callable");
  return timers_.schedule(now() + d, std::move(action));
}

bool RealTimeScheduler::cancel(EventId id) { return timers_.cancel(id); }

void RealTimeScheduler::watch_fd(int fd, FdCallback on_readable) {
  RBCAST_CHECK_ARG(fd >= 0, "watch_fd needs a valid descriptor");
  RBCAST_CHECK_ARG(on_readable != nullptr, "watch_fd needs a callback");
  watched_[fd] = std::move(on_readable);
  rebuild_poll_set();
}

void RealTimeScheduler::unwatch_fd(int fd) {
  watched_.erase(fd);
  rebuild_poll_set();
}

void RealTimeScheduler::rebuild_poll_set() {
  poll_set_.clear();
  for (const auto& [fd, cb] : watched_) {
    poll_set_.push_back(pollfd{fd, POLLIN, 0});
  }
}

Duration RealTimeScheduler::fire_due_timers(Duration horizon) {
  // Pop one due timer at a time: the action may schedule or cancel other
  // timers. pop_due never moves the queue's cursor past the time it is
  // given, so a timer armed from inside an action at now() is accepted.
  while (auto fired = timers_.pop_due(now())) {
    fired->action();
    if (stopped_) return horizon;
  }
  if (timers_.empty()) return horizon;
  return std::min(timers_.next_time() - now(), horizon);
}

void RealTimeScheduler::run_until(TimePoint t) {
  stopped_ = false;
  while (!stopped_) {
    const Duration remaining = t - now();
    if (remaining <= 0) return;
    const Duration wait = fire_due_timers(remaining);
    if (stopped_ || t - now() <= 0) return;

    // Round the poll timeout up to whole milliseconds so we never spin
    // sub-millisecond waits, and cap it to keep the int conversion safe.
    const Duration wait_ms =
        std::min<Duration>((std::max<Duration>(wait, 0) + 999) / 1000,
                           60 * 1000);
    const int rc =
        ::poll(poll_set_.data(), static_cast<nfds_t>(poll_set_.size()),
               static_cast<int>(wait_ms));
    if (rc < 0) continue;  // EINTR: just re-derive deadlines and retry
    // By index: a callback that watches or unwatches an fd rebuilds
    // poll_set_ with cleared revents, so the rest of this turn's readiness
    // is dropped and the next poll() reports it again (level-triggered).
    for (std::size_t i = 0; i < poll_set_.size(); ++i) {
      if (stopped_) return;
      const pollfd p = poll_set_[i];
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      // The callback may unwatch fds (including its own); look it up
      // fresh and skip if it vanished.
      const auto it = watched_.find(p.fd);
      if (it != watched_.end()) it->second();
    }
  }
}

}  // namespace rbcast::util
