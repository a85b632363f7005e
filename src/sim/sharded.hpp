// Sharded simulation: event-queue shards driven by a worker-thread pool
// under conservative-lookahead synchronization.
//
// The single-queue sim::Simulation executes an N-node federation on one
// core; this driver runs a set of Simulation shards (private clock, event
// queue, RNG, stats registry each) in parallel, synchronized in *windows*
// of virtual time:
//
//   frontier      = min over shards (queues + undrained mailboxes) of the
//                   next pending event's time
//   window_end(s) = frontier + min over p != s of lookahead(p, s)
//
// where lookahead(p, s) is the minimum latency any interaction from shard
// p can add to shard s (for the simulated network: the smallest delay of
// any cross-shard link from a node on p to a node on s).  Shard s may
// safely execute every event with time < window_end(s), because any
// message another shard p sends this window was sent at a time >= frontier
// and therefore arrives at >= frontier + lookahead(p, s) >= window_end(s)
// — outside s's window.  That is the classic conservative
// (Chandy–Misra-style) bound with a barrier instead of null messages,
// generalized to a per-pair lookahead matrix: a WAN-scale link widens the
// windows of the shards behind it instead of the slowest link throttling
// everyone.  The matrix defaults to the uniform construction-time
// lookahead; set_pair_lookahead() widens individual pairs (net::Network
// derives entries from its CostModel + per-link extra latency).
//
// More than one simulated node may live on one shard (an affinity-aware
// node:shard mapping — see net::Network): traffic between co-located nodes
// is scheduled directly into the shared shard queue with no mailbox or
// barrier involvement and does NOT constrain the lookahead matrix, which
// is what makes clustering chatty node pairs profitable.
//
// Cross-shard sends travel through per-link mailboxes, double-buffered by
// round: during a round the worker running the source shard appends to
// the write side of mailbox (from, to), while the worker running the
// destination shard drains the read side (everything posted last round).
// The sides swap inside the round barrier, so no mailbox is touched by two
// threads in one round — the one barrier per round is the only
// synchronization.  (The previous design
// needed two full barriers per round to separate the drain and run phases;
// double-buffering removes that ordering requirement and halves the
// barrier cost.)  The barrier itself is a centralized sense-reversing
// barrier that spins briefly and then parks with exponential backoff —
// oversubscribed runs (more workers than hardware threads) park almost
// immediately instead of burning each other's quantum.
//
// Work balancing: each worker has a fixed *home* block of shards, which it
// runs first every round, heaviest first — balanced runs keep every shard
// on one core.  A worker whose home shards are done then steals the other
// workers' still-unclaimed shards, heaviest first.  "Heaviest" is the
// number of events the shard executed in its previous window (a
// deterministic signal); control() sorts that steal order inside the
// barrier.  A claim is one atomic exchange of the shard's round stamp, so
// exactly one worker runs each shard per round.  Load that migrates with
// MAGE objects onto a few hot nodes therefore spreads over all workers
// instead of stalling every round on the one worker whose block holds
// them.
//
// Determinism: the window sequence is a pure function of event timestamps,
// so it does not depend on the worker count, nor on which worker claimed
// which shard.  Within a window each shard executes its own queue
// sequentially; equal-time events are ordered by
// the EventQueue tie key (deliveries carry their source node id), so the
// events of every NODE fire in an identical order at any thread count AND
// under any node:shard mapping — a property tests/sharded_sim_test.cpp
// enforces and BENCH_storm's threaded mode re-asserts with a per-node
// order digest on every run.
//
// Threading contract (audited; see docs/ARCHITECTURE.md):
//   * shard state (queue, clock, RNG, stats) is touched, in a round, only
//     by the one worker that claimed the shard that round, and only by the
//     driver thread while stopped.  Successive rounds may run a shard on
//     different workers; the round barrier orders one claimant's writes
//     before the next claimant's reads;
//   * post() may be called only from the worker running the source shard
//     (or from the driver while stopped);
//   * the driver predicate runs at round barriers with all workers
//     parked, so it may read anything the shards wrote — but state it
//     reads that is written from multiple shards' callbacks must be
//     per-shard or atomic;
//   * configuration (adding nodes, handlers, fault injection, the
//     lookahead matrix) is frozen while workers run — net::Network and
//     set_pair_lookahead enforce this by throwing.
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
  // with set_pair_lookahead.  Shard i is seeded deterministically from
  // `seed` and i.
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

  // Schedules `action` at absolute time `at` on shard `to`.  Callable from
  // shard `from`'s worker during a window (the action lands in the write
  // side of the (from, to) mailbox and is drained next round), or from the
  // driver thread while stopped.  `at` must be >= the posting shard's
  // current time + pair_lookahead(from, to) when posting mid-run; the
  // network layer guarantees this by construction (every cross-shard delay
  // >= the pair's lookahead entry).  `tie` is the EventQueue same-instant
  // key (deliveries pass their source node id).
  void post(std::size_t from, std::size_t to, common::SimTime at,
            EventQueue::Action action, Wake wake = Wake::Yes,
            std::uint32_t tie = 0);

  // Runs all shards on `threads` workers until `done` returns true —
  // checked at round barriers after any shard executed a waking event —
  // or every queue and mailbox drains (returns done() then, or true when
  // no predicate was given), or the frontier passes `deadline` (returns
  // done()).  Driver-only; not reentrant.
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
    bool wake;
    EventQueue::Action action;
  };

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

  // Drains and runs shard `s`'s window; returns whether a waking event ran.
  bool run_shard(std::size_t s);

  // The control step, run by exactly one thread inside the round barrier
  // (all workers parked): folds wake marks, evaluates the predicate,
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
  std::atomic<bool> any_woke_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_;
  std::mutex error_mutex_;
  RunProfile profile_;
};

}  // namespace mage::sim
