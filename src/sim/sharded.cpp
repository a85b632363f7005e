#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"

namespace mage::sim {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// One worker's share of the run profile, written only by that worker.
// Padded so workers never write one cache line.
struct alignas(64) WorkerSlot {
  ShardedSim::WorkerLoad load;
  std::int64_t steals = 0;
};

// SplitMix64: spreads one master seed into decorrelated per-shard seeds.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Centralized sense-reversing barrier that parks instead of spinning.
//
// std::barrier's wait spins hard; with more workers than hardware threads
// the spinners burn exactly the quantum the straggler needs to arrive, and
// the old two-barriers-per-round loop paid that tax twice.  This barrier
// spins only briefly (shorter when oversubscribed), then yields with
// exponential backoff, then parks on the generation word's futex until it
// advances.  The completion runs on the last arriver with every other
// party quiescent — exactly the window the control step needs.
class ParkingBarrier {
 public:
  ParkingBarrier(std::size_t parties, bool oversubscribed)
      : parties_(parties),
        spin_limit_(parties == 1 ? 0 : (oversubscribed ? 64 : 4096)) {}

  // `completion` must not throw (mirror of std::barrier's contract).
  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    const std::uint32_t gen = generation_.load(std::memory_order_acquire);
    if (arrive(completion)) return;
    for (int i = 0; i < spin_limit_; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    int backoff = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (backoff < kMaxYields) {
        for (int i = 0; i < (1 << backoff); ++i) std::this_thread::yield();
        ++backoff;
      } else {
        generation_.wait(gen, std::memory_order_acquire);
      }
    }
  }

  // Counts one arrival without waiting: the last arriver runs `completion`
  // and releases the round (and gets true).  Alone, it stands in for a
  // party that will never arrive.
  template <typename Completion>
  bool arrive(Completion&& completion) {
    // acq_rel: each arriver's release publishes its round writes into the
    // release sequence on arrived_; the last arriver's acquire therefore
    // sees every party's writes before running the completion.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 != parties_) {
      return false;
    }
    completion();
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    return true;
  }

 private:
  static constexpr int kMaxYields = 4;

  const std::size_t parties_;
  const int spin_limit_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint32_t> generation_{0};
};

}  // namespace

ShardedSim::ShardedSim(std::size_t shard_count, std::uint64_t seed,
                       common::SimDuration lookahead)
    : mail_(shard_count * shard_count),
      inbound_(2 * shard_count),
      lookahead_(lookahead),
      seed_(seed),
      la_(shard_count * shard_count, lookahead),
      min_in_la_(shard_count, lookahead),
      window_ends_(shard_count, 0),
      slots_(shard_count),
      steal_order_(shard_count) {
  if (shard_count == 0) {
    throw common::MageError("sharded simulation needs at least one shard");
  }
  if (lookahead < 1) {
    throw common::MageError(
        "conservative lookahead must be >= 1 simulated microsecond (a zero "
        "lookahead makes every window empty); use a cost model with nonzero "
        "cross-node latency");
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Simulation>(splitmix64(seed + i)));
  }
  std::iota(steal_order_.begin(), steal_order_.end(), std::size_t{0});
}

void ShardedSim::set_pair_lookahead(std::size_t from, std::size_t to,
                                    common::SimDuration lookahead) {
  if (running()) {
    throw common::MageError(
        "ShardedSim::set_pair_lookahead is driver-only: the lookahead matrix "
        "cannot change while workers run");
  }
  const std::size_t count = shards_.size();
  if (from >= count || to >= count) {
    throw common::MageError("set_pair_lookahead(" + std::to_string(from) +
                            ", " + std::to_string(to) +
                            ") out of range for shard count " +
                            std::to_string(count));
  }
  if (lookahead < 1) {
    throw common::MageError(
        "pair lookahead for shard link " + std::to_string(from) + " -> " +
        std::to_string(to) + " must be >= 1 simulated microsecond, got " +
        std::to_string(lookahead));
  }
  la_[from * count + to] = lookahead;
}

void ShardedSim::set_boundary_hook(BoundaryHook hook, const void*) {
  if (running()) {
    throw common::MageError(
        "ShardedSim::set_boundary_hook is driver-only: the hook table "
        "cannot change while workers run");
  }
  boundary_hook_ = std::move(hook);
}

void ShardedSim::post(std::size_t from, std::size_t to, common::SimTime at,
                      EventQueue::Action action, Wake wake,
                      std::uint32_t tie) {
  // Causality check, enforced rather than documented: a mid-run post that
  // lands inside the destination's conservative window would execute in
  // its past and silently break determinism (e.g. a cost model whose
  // effective cross-shard delay dropped below the pair's lookahead entry).
  // Driver-side posts while stopped are exempt — they are folded into the
  // frontier before the first window is computed.
  const common::SimDuration la = la_[from * shards_.size() + to];
  if (running() && at < shards_[from]->now() + la) {
    throw common::MageError(
        "cross-shard post at t=" + std::to_string(at) + " from shard " +
        std::to_string(from) + " (now " +
        std::to_string(shards_[from]->now()) + ") to shard " +
        std::to_string(to) + " lands inside the " + std::to_string(la) +
        "us conservative window: the link's delay undercuts the pair "
        "lookahead");
  }
  Mailbox& box = mailbox(from, to);
  auto& items = box.items[write_side_];
  items.push_back(Posted{at, tie, wake == Wake::Yes, std::move(action)});
  box.min_at[write_side_] = std::min(box.min_at[write_side_], at);
  inbound(write_side_, to).any.store(true, std::memory_order_relaxed);
}

void ShardedSim::drain_shard(std::size_t s) {
  // Reads the side posts are NOT going to this round; the swap happened
  // inside the barrier, so nothing races these vectors.
  const std::size_t drain_side = 1 - write_side_;
  InboundFlag& flag = inbound(drain_side, s);
  if (!flag.any.load(std::memory_order_relaxed)) return;
  flag.any.store(false, std::memory_order_relaxed);
  const std::size_t count = shards_.size();
  Simulation& sim = *shards_[s];
  for (std::size_t from = 0; from < count; ++from) {
    Mailbox& box = mailbox(from, s);
    auto& items = box.items[drain_side];
    if (items.empty()) continue;
    for (Posted& p : items) {
      (void)sim.schedule_at(p.at, std::move(p.action),
                            p.wake ? Wake::Yes : Wake::No, p.tie);
    }
    items.clear();  // keeps capacity: steady-state drains allocate nothing
    box.min_at[drain_side] = Simulation::kNoDeadline;
  }
}

bool ShardedSim::run_shard(std::size_t s) {
  drain_shard(s);
  Simulation& sim = *shards_[s];
  const std::int64_t before = sim.events_run();
  const bool woke = sim.run_window(window_ends_[s]);
  ShardSlot& slot = slots_[s];
  slot.last_events = sim.events_run() - before;
  slot.load.events += slot.last_events;
  return woke;
}

void ShardedSim::control(const std::function<bool()>& done,
                         common::SimTime deadline) {
  if (failed_.load(std::memory_order_relaxed)) {
    stop_ = true;
    success_ = false;
    return;
  }
  // All of this runs with every worker parked inside the barrier, so plain
  // reads of shard state and plain writes of the run-scoped fields are
  // ordered by the barrier itself.
  try {
    if (any_woke_.exchange(false, std::memory_order_relaxed) && done) {
      if (done()) {
        stop_ = true;
        success_ = true;
        return;
      }
    }
    // The frontier folds the shard queues AND the not-yet-drained
    // mailboxes: control runs before the next round's drains, so an event
    // that so far exists only in a mailbox (posted last round, or by the
    // driver while stopped) must still count.  Only the write side can
    // hold items here — the other side was drained during the round that
    // just ended — and the inbound flags bound the scan to destinations
    // that actually received posts.
    const std::size_t count = shards_.size();
    common::SimTime frontier = Simulation::kNoDeadline;
    for (const auto& s : shards_) {
      frontier = std::min(frontier, s->next_event_time());
    }
    for (std::size_t to = 0; to < count; ++to) {
      if (!inbound(write_side_, to).any.load(std::memory_order_relaxed)) {
        continue;
      }
      for (std::size_t from = 0; from < count; ++from) {
        frontier = std::min(frontier, mailbox(from, to).min_at[write_side_]);
      }
    }
    if (frontier == Simulation::kNoDeadline) {
      // Every queue and mailbox drained.  Mirror Simulation::run_until's
      // final re-check: never report false while done() holds.
      stop_ = true;
      success_ = done ? done() : true;
      return;
    }
    if (frontier > deadline) {
      stop_ = true;
      success_ = done ? done() : false;
      return;
    }
    frontier_ = frontier;
    // Boundary hook (window instrumentation): all workers are parked, and
    // it runs before the window executes.
    if (boundary_hook_) boundary_hook_(frontier);
    // Continue: swap the mailbox sides — last round's posts become the
    // coming round's drain side.  The swap happens ONLY on the continue
    // path, so when run_until returns, pending posts always sit in
    // items[write_side_] and the other side is empty: the invariant the
    // frontier fold above (and the next run) relies on.
    write_side_ = 1 - write_side_;
    // Per-shard window bound: the tightest INCOMING pair lookahead is what
    // limits how far past the frontier shard s may run.  Clamp to the
    // deadline so no event past it ever executes — the same contract as
    // Simulation::run_until; frontier <= deadline here, so the window
    // still makes progress (>= frontier + 1).
    for (std::size_t s = 0; s < count; ++s) {
      const common::SimDuration margin = min_in_la_[s];
      common::SimTime end = frontier > Simulation::kNoDeadline - margin
                                ? Simulation::kNoDeadline
                                : frontier + margin;
      if (deadline != Simulation::kNoDeadline && end > deadline + 1) {
        end = deadline + 1;
      }
      window_ends_[s] = end;
    }
    // Open the round's claims and rank the steal order by last window's
    // work.
    ++round_;
    std::sort(steal_order_.begin(), steal_order_.end(),
              [this](std::size_t a, std::size_t b) {
                const std::int64_t ea = slots_[a].last_events;
                const std::int64_t eb = slots_[b].last_events;
                return ea != eb ? ea > eb : a < b;
              });
    ++windows_;
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
    stop_ = true;
    success_ = false;
  }
}

bool ShardedSim::run_until(const std::function<bool()>& done, int threads,
                           common::SimTime deadline) {
  if (running_.load(std::memory_order_relaxed)) {
    throw common::MageError("ShardedSim::run_until is not reentrant");
  }
  profile_ = RunProfile{};
  if (done && done()) return true;

  const std::size_t shard_total = shards_.size();
  const std::size_t workers = std::clamp<std::size_t>(
      threads < 1 ? 1 : static_cast<std::size_t>(threads), 1, shard_total);

  // Cache each shard's window margin: min over the incoming row of the
  // pair matrix.  Intra-shard entries (p == s) deliberately do NOT
  // constrain the window — co-located nodes share one queue and need no
  // conservative bound; that is the payoff of affinity mapping.  A single
  // shard keeps the uniform entry so window cadence (and hence boundary
  // hooks like fault schedules) matches the multi-shard case.
  for (std::size_t s = 0; s < shard_total; ++s) {
    common::SimDuration margin =
        shard_total == 1 ? la_[0] : Simulation::kNoDeadline;
    for (std::size_t p = 0; p < shard_total; ++p) {
      if (p == s) continue;
      margin = std::min(margin, la_[p * shard_total + s]);
    }
    min_in_la_[s] = margin;
  }

  stop_ = false;
  success_ = false;
  windows_ = 0;
  any_woke_.store(false, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;
  for (ShardSlot& slot : slots_) slot.load = ShardLoad{};
  std::vector<WorkerSlot> worker_slots(workers);

  const unsigned hw = std::thread::hardware_concurrency();
  ParkingBarrier barrier(workers, hw != 0 && workers > hw);
  const auto control_step = [&]() noexcept { control(done, deadline); };
  const auto fail = [this](std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::move(error);
    }
    failed_.store(true, std::memory_order_relaxed);
  };

  // One barrier per round: control (frontier, predicate, side swap, window
  // bounds, steal order) runs as the barrier's completion, then every
  // worker claims, drains and runs shards — its home block first, then any
  // other worker's shard still unclaimed, both heaviest first.  The drain
  // races nothing — posts during the round target the other side.
  auto worker = [&](std::size_t w) {
    const std::size_t home_begin = w * shard_total / workers;
    const std::size_t home_end = (w + 1) * shard_total / workers;
    WorkerSlot& me = worker_slots[w];
    // `mark` is the end of the last interval charged: each clock read
    // closes one interval and opens the next.
    Clock::time_point mark = Clock::now();
    bool woke = false;
    const auto run = [&](std::size_t s) {
      woke = run_shard(s) || woke;
      const Clock::time_point t = Clock::now();
      slots_[s].load.busy_ns += elapsed_ns(mark, t);
      mark = t;
    };
    while (true) {
      barrier.arrive_and_wait(control_step);
      const Clock::time_point released = Clock::now();
      me.load.wait_ns += elapsed_ns(mark, released);
      mark = released;
      if (stop_) return;
      woke = false;
      try {
        for (std::size_t s : steal_order_) {
          if (s >= home_begin && s < home_end && claim(s)) run(s);
        }
        // Every home shard is claimed now, so any claim here is a steal.
        for (std::size_t s : steal_order_) {
          if (claim(s)) {
            run(s);
            ++me.steals;
          }
        }
      } catch (...) {
        fail(std::current_exception());
      }
      me.load.busy_ns += elapsed_ns(released, mark);
      if (woke) any_woke_.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  running_.store(true, std::memory_order_release);
  bool spawned = true;
  for (std::size_t w = 1; w < workers && spawned; ++w) {
    try {
      pool.emplace_back(worker, w);
    } catch (const std::exception& e) {
      // std::system_error (no thread left) or std::bad_alloc.  The workers
      // already started wait at the first barrier for parties that will
      // never come.  Fail the run and arrive in place of every missing
      // party, this thread included: the control step then stops the run,
      // and the started workers return to be joined.
      fail(std::make_exception_ptr(common::MageError(
          "ShardedSim::run_until could not start worker thread " +
          std::to_string(w) + " of " + std::to_string(workers) + ": " +
          e.what())));
      for (std::size_t missing = w; missing <= workers; ++missing) {
        (void)barrier.arrive(control_step);
      }
      spawned = false;
    }
  }
  if (spawned) worker(0);
  for (auto& t : pool) t.join();
  running_.store(false, std::memory_order_release);

  for (const ShardSlot& slot : slots_) profile_.shards.push_back(slot.load);
  for (const WorkerSlot& slot : worker_slots) {
    profile_.workers.push_back(slot.load);
    profile_.steals += slot.steals;
  }

  if (first_error_) std::rethrow_exception(first_error_);
  return success_;
}

std::int64_t ShardedSim::counter(const std::string& key) const {
  std::int64_t total = 0;
  for (const auto& s : shards_) total += s->stats().counter(key);
  return total;
}

}  // namespace mage::sim
