// The discrete-event simulation driver.
//
// Single-threaded: one virtual clock, one event queue (util::TimerQueue,
// the exact-order queue util::RealTimeScheduler keeps its timers in too).
// Every component of the reproduction — links, servers, protocol hosts,
// fault injectors, workload generators — schedules callbacks here.
// Determinism contract: given the same topology, configuration and RNG
// seed, a run is bit-for-bit reproducible.
#pragma once

#include "sim/time.h"
#include "util/scheduler.h"
#include "util/timer_queue.h"

namespace rbcast::sim {

// Implements util::Scheduler (now/after/cancel) so the protocol layer can
// run on a Simulator without an include edge into sim/. `final` lets calls
// through a concrete Simulator& devirtualize.
class Simulator final : public util::Scheduler {
 public:
  Simulator();
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const override { return now_; }

  // Schedules at an absolute time, which must not be in the past.
  util::EventId at(TimePoint t, Action action);

  // Schedules `d` ticks from now (d >= 0).
  util::EventId after(Duration d, Action action) override;

  // Cancels a pending event; false if it already fired.
  bool cancel(util::EventId id) override { return queue_.cancel(id); }

  // Runs every event with time <= t, then advances the clock to t.
  void run_until(TimePoint t);

  // Convenience: run_until(now() + d).
  void run_for(Duration d) { run_until(now_ + d); }

  // Runs all pending events to exhaustion (only safe when no component
  // self-reschedules forever; tests use it, full scenarios use run_until).
  void run_to_completion();

  // Fires the single earliest event, if any. Returns false when idle.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  TimePoint now_{0};
  util::TimerQueue queue_;
};

}  // namespace rbcast::sim
