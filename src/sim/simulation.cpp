#include "sim/simulation.hpp"

#include <string>

#include "common/error.hpp"

namespace mage::sim {

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {}

EventId Simulation::schedule_at(common::SimTime at,
                                EventQueue::Action&& action,
                                std::uint32_t tie) {
  if (at < now_) [[unlikely]] {
    throw common::MageError("cannot schedule an event into the past: at " +
                            std::to_string(at) + "us, now " +
                            std::to_string(now_) + "us");
  }
  return queue_.schedule(at, std::move(action), tie);
}

EventId Simulation::schedule_after(common::SimDuration delay,
                                   EventQueue::Action&& action,
                                   std::uint32_t tie) {
  return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(action), tie);
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  common::SimTime at = 0;
  auto action = queue_.pop(at);
  now_ = at;
  ++events_run_;
  action();
  return true;
}

void Simulation::run_until_idle() {
  while (step()) {
  }
}

bool Simulation::run_until(const std::function<bool()>& done,
                           common::SimTime deadline) {
  while (!done()) {
    if (queue_.empty() || queue_.next_time() > deadline) return false;
    (void)step();
  }
  return true;
}

void Simulation::run_window(common::SimTime end) {
  while (!queue_.empty() && queue_.next_time() < end) (void)step();
}

void Simulation::run_for(common::SimDuration span) {
  if (span < 0) [[unlikely]] {
    throw common::MageError("cannot run for a negative span: " +
                            std::to_string(span) + "us at now " +
                            std::to_string(now_) + "us");
  }
  const common::SimTime end = now_ + span;
  while (!queue_.empty() && queue_.next_time() <= end) (void)step();
  now_ = end;
}

}  // namespace mage::sim
