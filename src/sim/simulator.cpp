#include "sim/simulator.h"

#include "util/assert.h"
#include "util/logging.h"

namespace rbcast::sim {

Simulator::Simulator() {
  util::Logger::instance().set_clock(&now_);
}

Simulator::~Simulator() {
  util::Logger::instance().set_clock(nullptr);
}

util::EventId Simulator::at(TimePoint t, Action action) {
  RBCAST_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  return queue_.schedule(t, std::move(action));
}

util::EventId Simulator::after(Duration d, Action action) {
  RBCAST_ASSERT_MSG(d >= 0, "negative delay");
  return queue_.schedule(now_ + d, std::move(action));
}

void Simulator::run_until(TimePoint t) {
  RBCAST_ASSERT_MSG(t >= now_, "cannot run backwards");
  while (auto fired = queue_.pop_due(t)) {
    RBCAST_PARANOID_ASSERT_MSG(fired->time >= now_,
                               "virtual time ran backwards");
    now_ = fired->time;
    fired->action();
  }
  now_ = t;
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  RBCAST_PARANOID_ASSERT_MSG(fired.time >= now_,
                             "virtual time ran backwards");
  now_ = fired.time;
  fired.action();
  return true;
}

}  // namespace rbcast::sim
