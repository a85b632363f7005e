// Sharded simulation: event-queue shards driven by a worker-thread pool
// under conservative-lookahead synchronization (docs/ARCHITECTURE.md,
// "Concurrency — the sharded simulation", has the full account).
//
// Each shard is a Simulation (private clock, event queue and stats
// registry).  The shards run in parallel, in *windows* of virtual time:
//
//   frontier      = min over shards (queues + undrained mailboxes) of the
//                   next pending event's time
//   window_end(s) = frontier + min over p != s of lookahead(p, s)
//
// where lookahead(p, s) is the minimum latency any interaction from shard
// p can add to shard s (for the simulated network: the smallest delay of
// any cross-shard link from a node on p to a node on s).  A message another
// shard sends this window leaves at >= frontier, so it arrives at >=
// window_end(s): outside s's window.  That is the conservative
// (Chandy–Misra-style) bound with a barrier instead of null messages, over
// a per-pair lookahead matrix (set_pair_lookahead; net::Network derives
// the entries from its CostModel + per-link extra latency), so a WAN-scale
// link widens the windows of the shards behind it.  Traffic between nodes
// that share a shard touches no mailbox and does not constrain the matrix.
//
// Cross-shard sends travel through per-link mailboxes, double-buffered by
// round: during a round the worker running the source shard appends to
// the write side of mailbox (from, to), while the worker running the
// destination shard drains the read side (everything posted last round).
// The sides swap inside the round barrier, so no mailbox is touched by two
// threads in one round — the one barrier per round is the only
// synchronization.  A layer may keep mailbox columns of its own on the
// same sides (net::Network's messages; see set_lander).  The barrier spins
// briefly and then parks with exponential backoff, so oversubscribed runs
// do not burn each other's quantum.
//
// Work balancing: each worker runs its fixed *home* block of shards first,
// then steals the other workers' still-unclaimed shards, both heaviest
// first ("heaviest": most events executed in the previous window, a
// deterministic signal that control() sorts inside the barrier).  A claim
// is one atomic exchange of the shard's round stamp, so exactly one worker
// runs each shard per round.
//
// Determinism: the window sequence is a pure function of event timestamps,
// and equal-time events are ordered by the EventQueue tie key (deliveries
// carry their source node id), so the events of every NODE fire in one
// order at any thread count and under any node:shard mapping — enforced by
// tests/sharded_sim_test.cpp and by per-node digests on every bench_storm
// run.
//
// Threading contract:
//   * shard state (queue, clock, stats) is touched, in a round, only by
//     the one worker that claimed the shard, and by the driver thread only
//     while stopped; the round barrier orders successive claimants;
//   * post() and mark_post() may be called only from the worker running
//     the source shard (or from the driver while stopped);
//   * the driver predicate runs at round barriers with all workers parked;
//     state it reads that several shards' callbacks write must be
//     per-shard or atomic;
//   * configuration (adding nodes, handlers, fault injection, the
//     lookahead matrix, the lander) is frozen while workers run: the
//     setters throw.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"

namespace mage::sim {

class ShardedSim {
 public:
  // `lookahead` (>= 1 simulated microsecond: a zero lookahead makes every
  // window empty and the conservative driver cannot progress) seeds every
  // entry of the pair-lookahead matrix; widen individual pairs afterwards
  // with set_pair_lookahead.  Every shard carries `seed`, from which
  // net::Network derives its per-node streams.
  ShardedSim(std::size_t shard_count, std::uint64_t seed,
             common::SimDuration lookahead);

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Simulation& shard(std::size_t i) { return *shards_[i]; }

  // The uniform construction-time lookahead: the floor every matrix entry
  // started from.  Pair entries may since have been widened.
  [[nodiscard]] common::SimDuration lookahead() const { return lookahead_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Widens (or narrows) one directed entry of the lookahead matrix: the
  // minimum virtual-time distance any event posted from shard `from` to
  // shard `to` must keep from the sender's clock.  Driver-only (throws
  // while workers run — a matrix mutated mid-window would deadlock or
  // corrupt the conservative bound); entries must be >= 1 simulated
  // microsecond.  The per-shard window bounds are recomputed at the next
  // run.
  void set_pair_lookahead(std::size_t from, std::size_t to,
                          common::SimDuration lookahead);
  [[nodiscard]] common::SimDuration pair_lookahead(std::size_t from,
                                                   std::size_t to) const {
    return la_[from * shards_.size() + to];
  }

  // True while run_until's workers are executing; layers use this to
  // reject configuration changes mid-run.
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }

  // Window-boundary hook: invoked inside the round barrier — every worker
  // parked — with the start time of the window about to run (the
  // conservative frontier), before any shard executes an event of that
  // window.  It is instrumentation (bench_e2e times windows with it), not
  // a way to change what the simulation computes: window boundaries depend
  // on the node:shard mapping and the lookahead matrix, so state a hook
  // mutated would reach shards at mapping-dependent times.  Mid-run changes
  // that shards must observe go through ordinary events on every shard
  // instead (net::FaultSchedule's appliers do).  Driver-only; throws while
  // workers run.  Pass nullptr to clear.  The second argument is ignored:
  // nothing reads an installer tag any more, and it stays only so that
  // bench/e2e's window timer, which still passes one, compiles unchanged.
  using BoundaryHook = std::function<void(common::SimTime window_start)>;
  void set_boundary_hook(BoundaryHook hook, const void* /*owner*/ = nullptr);

  // Schedules `action` at absolute time `at` on shard `to`: from shard
  // `from`'s worker during a window (the (from, to) mailbox is drained next
  // round), or from the driver while stopped.  Mid-run, `at` must be >= the
  // posting shard's time + pair_lookahead(from, to) (it throws otherwise).
  // `tie` is the EventQueue same-instant key.
  void post(std::size_t from, std::size_t to, common::SimTime at,
            EventQueue::Action&& action, std::uint32_t tie = 0);
  // The Wake argument is ignored (see enum Wake).
  void post(std::size_t from, std::size_t to, common::SimTime at,
            EventQueue::Action&& action, Wake) {
    post(from, to, at, std::move(action));
  }

  // Items a layer keeps in mailbox columns of its own (net::Network writes
  // a message for another shard once, into its (from, to) column on side
  // write_side()): mark_post() records one at `at` for the frontier and the
  // drain, with post()'s causality check, and the drain of shard `to` calls
  // the lander with `to` and the side to drain, after the posted actions.
  // set_lander is driver-only and takes one lander (nullptr removes it).
  using Lander = std::function<void(std::size_t to, std::size_t side)>;
  void set_lander(Lander lander);
  void mark_post(std::size_t from, std::size_t to, common::SimTime at);
  [[nodiscard]] std::size_t write_side() const { return write_side_; }

  // Runs all shards on `threads` workers until `done` returns true —
  // checked before the first window and at every round barrier, so the
  // run stops at the first barrier where it holds — or every queue and
  // mailbox drains (returns done() then, or true when no predicate was
  // given), or the frontier passes `deadline` (returns done()).
  // Driver-only; not reentrant.
  bool run_until(const std::function<bool()>& done, int threads,
                 common::SimTime deadline = Simulation::kNoDeadline);

  // Runs until every shard queue and mailbox drains.
  void run_until_idle(int threads) { (void)run_until(nullptr, threads); }

  // Global virtual-time frontier reached by the last run.
  [[nodiscard]] common::SimTime frontier() const { return frontier_; }

  // Sum of one named counter across all shard registries (driver-only).
  [[nodiscard]] std::int64_t counter(const std::string& key) const;

  // Windows executed by the last run (observability: the barrier cost per
  // unit of progress — exactly one barrier per window since the
  // double-buffered-mailbox redesign).
  [[nodiscard]] std::int64_t windows() const { return windows_; }

  // Where the last run's time went.  Wall-clock values live here, never in
  // the shards' StatsRegistry, so counter dumps and digests stay
  // deterministic; of these fields only ShardLoad::events is a function of
  // the seed alone.
  struct ShardLoad {
    std::int64_t events = 0;   // events executed
    std::int64_t busy_ns = 0;  // draining its mailboxes and running windows
  };
  struct WorkerLoad {
    std::int64_t busy_ns = 0;  // from barrier release to its round's end
    std::int64_t wait_ns = 0;  // inside the barrier, control step included
  };
  struct RunProfile {
    std::vector<ShardLoad> shards;
    std::vector<WorkerLoad> workers;
    std::int64_t steals = 0;  // shard windows run off their home worker
  };
  // Driver-only; reset by each run_until.
  [[nodiscard]] const RunProfile& last_run() const { return profile_; }

 private:
  struct Posted {
    common::SimTime at;
    std::uint32_t tie;
    EventQueue::Action action;
  };
  static_assert(sizeof(Posted) == 160,
                "a mailbox entry is a time, a tie and a 144-byte action");

  // One direction of one link, double-buffered by round parity: posts go
  // to side `write_side_`, drains read the other side — so the one round
  // barrier is the only synchronization a mailbox ever needs.  Padded to a
  // cache line so neighbouring mailboxes written by different workers
  // never share one.
  struct alignas(64) Mailbox {
    std::vector<Posted> items[2];
    common::SimTime min_at[2] = {Simulation::kNoDeadline,
                                 Simulation::kNoDeadline};
  };

  // One per (side, destination shard): lets a drain — and the frontier
  // fold in control() — skip a shard's whole mailbox column when nothing
  // was posted to it.  Padded: many source workers store `true`
  // concurrently.
  struct alignas(64) InboundFlag {
    std::atomic<bool> any{false};
  };

  [[nodiscard]] Mailbox& mailbox(std::size_t from, std::size_t to) {
    return mail_[from * shards_.size() + to];
  }
  [[nodiscard]] InboundFlag& inbound(std::size_t side, std::size_t to) {
    return inbound_[side * shards_.size() + to];
  }

  // Per-shard scheduling state.  `claimed` holds the last round whose
  // claim on the shard succeeded; the other fields are written by that
  // round's claimant and read in control() inside the barrier.  Padded:
  // every worker's steal pass reads the stamps.
  struct alignas(64) ShardSlot {
    std::atomic<std::uint64_t> claimed{0};
    std::int64_t last_events = 0;  // events of its last window: steal rank
    ShardLoad load;
  };

  // True for exactly one caller per shard per round.
  bool claim(std::size_t s) {
    std::atomic<std::uint64_t>& stamp = slots_[s].claimed;
    return stamp.load(std::memory_order_relaxed) != round_ &&
           stamp.exchange(round_, std::memory_order_relaxed) != round_;
  }

  // Drains the read side of every inbound mailbox of shard `s` into its
  // queue.  Runs on the shard's claimant during the round, racing nothing:
  // posts target the write side.
  void drain_shard(std::size_t s);

  // Drains and runs shard `s`'s window.
  void run_shard(std::size_t s);

  // The control step, run by exactly one thread inside the round barrier
  // (all workers parked): evaluates the predicate,
  // computes the next window (frontier + per-shard bounds, swapping the
  // mailbox sides, opening a new claim round and ranking the steal order)
  // or decides to stop.
  void control(const std::function<bool()>& done, common::SimTime deadline);

  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<Mailbox> mail_;  // row-major: mail_[from * S + to]
  std::vector<InboundFlag> inbound_;  // [side * S + to]
  common::SimDuration lookahead_;
  std::uint64_t seed_;
  // Pair-lookahead matrix, row-major [from * S + to], and the cached
  // per-shard window margin (min over incoming entries), rebuilt at run
  // start.
  std::vector<common::SimDuration> la_;
  std::vector<common::SimDuration> min_in_la_;
  BoundaryHook boundary_hook_;
  Lander lander_;

  // Run-scoped state.  Written by control() inside the barrier or by
  // workers under the phase discipline above; the barrier provides the
  // ordering.
  common::SimTime frontier_ = 0;
  std::vector<common::SimTime> window_ends_;  // per shard
  std::vector<ShardSlot> slots_;              // per shard
  // Shards by descending last-window events: every worker's claim order.
  std::vector<std::size_t> steal_order_;
  std::uint64_t round_ = 0;     // claim stamp; never reset, so never stale
  std::size_t write_side_ = 0;  // mailbox side posts go to this round
  bool stop_ = false;
  bool success_ = false;
  std::int64_t windows_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_;
  std::mutex error_mutex_;
  RunProfile profile_;
};

}  // namespace mage::sim
