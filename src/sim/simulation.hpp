// Simulation driver.
//
// One Simulation is a shard: a queue, a clock and a stats registry.  On
// its own it is the "universe" for a MAGE federation that runs on one
// core; sim::ShardedSim drives several as the shards of one run.  Random
// draws are never the shard's: every stream belongs to a node
// (net::Network::node_rng), so an outcome does not depend on which nodes
// share a shard.
//
// Synchrony model (see docs/ARCHITECTURE.md "Synchrony model"):
// application code — the "driver" — makes synchronous calls (`bind()`,
// stub invocations).  Internally those calls send messages and then run
// the event loop via run_until(predicate) until the reply lands.
// Server-side protocol steps never block; they are plain event handlers
// that may send further messages.  This gives the paper's synchronous
// programmer-facing semantics on top of an asynchronous message-passing
// substrate.
#pragma once

#include <cassert>
#include <functional>
#include <limits>
#include <utility>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"

namespace mage::sim {

// Accepted and ignored by the schedule_at / schedule_after / ShardedSim::
// post overloads that take one: run_until checks its predicate after every
// event, so no event needs marking.  It stays only so that callers that
// still pass one compile unchanged.
enum class Wake : bool { No = false, Yes = true };

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 0x6D616765u);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] common::SimTime now() const { return now_; }

  // The construction seed: net::Network derives its per-node streams from
  // it.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Throws MageError when `at` is before now(): the clock never runs
  // backwards.  `tie` orders same-instant events before insertion order
  // (EventQueue's tie key: deliveries pass their source node id, ordinary
  // events 0).
  EventId schedule_at(common::SimTime at, EventQueue::Action&& action,
                      std::uint32_t tie = 0);
  EventId schedule_after(common::SimDuration delay,
                         EventQueue::Action&& action, std::uint32_t tie = 0);
  // The Wake argument is ignored (see enum Wake).
  EventId schedule_at(common::SimTime at, EventQueue::Action&& action, Wake) {
    return schedule_at(at, std::move(action));
  }
  EventId schedule_after(common::SimDuration delay,
                         EventQueue::Action&& action, Wake) {
    return schedule_after(delay, std::move(action));
  }

  // An event that fires where one scheduled now would (EventQueue::
  // reserve_seq): reserve the number now, schedule the event later.  For
  // internal callers that never schedule into the past (asserted, not
  // thrown: `at` is computed, not a driver's input).
  [[nodiscard]] std::uint64_t reserve_seq() { return queue_.reserve_seq(); }
  EventId schedule_reserved(common::SimTime at, std::uint64_t seq,
                            EventQueue::Action&& action) {
    assert(at >= now_);
    return queue_.schedule_reserved(at, seq, std::move(action));
  }

  // Cancels a scheduled event; no-op if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  // Runs one pending event; returns false when the queue is empty.
  bool step();

  // Runs events until the queue drains.
  void run_until_idle();

  // Runs events until `done` returns true, checking it before the first
  // event and after every event, so it returns at the time of the event
  // that satisfied it.  Returns false if the queue drained (or the next
  // event lies past `deadline`) first — the caller decides whether that is
  // a timeout error.
  bool run_until(const std::function<bool()>& done,
                 common::SimTime deadline = kNoDeadline);

  // Runs events for a fixed span of simulated time, then advances the clock
  // to exactly now()+span even if the queue drained earlier.  Throws
  // MageError for a negative span: the clock never runs backwards.
  void run_for(common::SimDuration span);

  // --- sharded-execution primitives (see sim/sharded.hpp) -----------------

  // Time of the earliest pending event, or kNoDeadline when the queue is
  // empty.  The sharded driver folds these into the global virtual-time
  // frontier.
  [[nodiscard]] common::SimTime next_event_time() {
    return queue_.empty() ? kNoDeadline : queue_.next_time();
  }

  // Runs every event with time strictly before `end` — this shard's share
  // of one conservative window.  The clock is left at the last executed
  // event's time (not advanced to `end`).
  void run_window(common::SimTime end);

  // Events executed over this shard's lifetime.  The sharded driver diffs
  // it around run_window to rank shards by their last window's work — a
  // deterministic load signal, unlike wall time.
  [[nodiscard]] std::int64_t events_run() const { return events_run_; }

  [[nodiscard]] common::StatsRegistry& stats() { return stats_; }

  static constexpr common::SimTime kNoDeadline =
      std::numeric_limits<common::SimTime>::max();

 private:
  common::SimTime now_ = 0;
  EventQueue queue_;
  common::StatsRegistry stats_;
  std::int64_t events_run_ = 0;
  std::uint64_t seed_;
};

}  // namespace mage::sim
