// Seed-replayable chaos harness: random fault schedules over the storm
// mesh, replayed bit-identically under any engine layout.
//
// One 64-bit seed determines EVERYTHING about a chaos run: the fault
// schedule (via its own Rng stream), the per-NODE loss RNG streams (each
// seeded from the engine seed and the node's id, so every IID loss
// decision is a function of the node's own send sequence — surviving any
// node:shard remapping), and therefore every drop, retransmission,
// duplicate, and re-delivery.  `run_chaos_storm(seed, threads, params)`
// runs the same all-to-all echo storm under the same generated schedule
// and returns per-node execution digests plus the full counter picture,
// so tests can assert:
//
//   (a) determinism  — digests (execution order + shard-local timestamps)
//       identical at any worker count and under any layout: one
//       sim::Simulation, a 1-shard ShardedSim, a site-clustered mapping,
//       or the identity mapping;
//   (b) at-most-once — every (caller, seq) invoke executed exactly once
//       despite retransmissions (execution counters, not just reply
//       dedup), with zero eviction-caused re-executions under an
//       adequately sized reply cache;
//   (c) per-link FIFO — the network's wire-FIFO self-check stays at zero
//       violations across partition cuts and heals;
//   (d) liveness     — zero failed invokes: once connectivity is restored
//       the retransmission machinery delivers everything.
//
// `threads == 0` runs the storm on one sim::Simulation (the one-shard
// network); `threads >= 1` on a ShardedSim laid out by params.shards.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace mage::testing {

struct ChaosParams {
  int nodes = 8;
  int calls_per_link = 30;
  int window = 4;  // outstanding calls per link
  std::size_t reply_cache_capacity = rmi::Transport::kReplyCacheCapacity;
  // Faults land inside [t0, t0 + span]; every partition heals and every
  // crash restarts by the end of the span.  The storm keeps retrying far
  // past it (retry budget = retry_timeout * max_attempts >> span), so no
  // invoke is ever lost to the schedule.
  common::SimTime fault_t0_us = 1'000;
  common::SimDuration fault_span_us = 6'000;
  rmi::CallOptions call_options{/*retry_timeout_us=*/3'000,
                                /*max_attempts=*/64};
  // Per-link invoke coalescing (rmi::BatchOptions) on every transport.
  // Exactly-once, FIFO, and digest determinism must all hold unchanged —
  // a dropped batch frame is retried per-request and re-executes as a
  // unit with zero duplicate side effects.
  bool batching = false;
  common::SimDuration flush_quantum_us = 250;
  // Fire a one-way "chaos.note" alongside every echo call.  One-ways have
  // no retransmission, so under loss their per-(caller, seq) execution
  // count is 0 or 1 — never 2 (at-most-once by construction).
  bool oneway_notes = false;
  // Topology: the nodes form `sites` equal blocks of consecutive ids, and
  // every link between two blocks pays `site_hop_us` of extra one-way
  // latency (a WAN hop).
  int sites = 1;
  common::SimDuration site_hop_us = 0;
  // ShardedSim layout (threads >= 1): 0 puts each node on its own shard
  // (the identity mapping); k >= 1 builds k shards and places site s on
  // shard s % k.  A layout chooses where the storm runs, never what it
  // computes.
  std::size_t shards = 0;
};

inline net::CostModel chaos_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  m.connection_setup_us = 100;
  m.local_invoke_us = 1;
  return m;
}

// Generates a random schedule from `seed`, guaranteed to contain at least
// one loss burst, one partition/heal pair, and one node crash/restart —
// plus a few extra random events — all inside the params' fault window.
// Pure function of (seed, params): every worker-count replay of a seed
// sees the same program.
inline net::FaultSchedule random_fault_schedule(std::uint64_t seed,
                                                const ChaosParams& params) {
  common::Rng rng(seed ^ 0xC4A05ull);
  const auto n = static_cast<std::uint64_t>(params.nodes);
  const common::SimTime t0 = params.fault_t0_us;
  const common::SimDuration span = params.fault_span_us;
  auto time_in = [&](double lo_frac, double hi_frac) {
    const auto lo = static_cast<std::int64_t>(lo_frac * span);
    const auto hi = static_cast<std::int64_t>(hi_frac * span);
    return t0 + rng.next_range(lo, hi);
  };
  auto node = [&] {
    return common::NodeId{static_cast<std::uint32_t>(rng.next_below(n) + 1)};
  };

  net::FaultSchedule schedule;
  // Mandatory loss burst: 5-35% IID loss for 1/6..1/3 of the span.
  schedule.loss_burst(time_in(0.0, 0.4),
                      0.05 + 0.3 * rng.next_double(),
                      span / 6 + rng.next_below(span / 6));
  // Mandatory partition/heal pair on a random link.
  {
    const common::NodeId a = node();
    common::NodeId b = node();
    while (b == a) b = node();
    schedule.partition_for(time_in(0.0, 0.4), a, b,
                           span / 6 + rng.next_below(span / 4));
  }
  // Mandatory crash/restart of a random node.
  schedule.crash_for(time_in(0.1, 0.5), node(),
                     span / 8 + rng.next_below(span / 4));
  // 0-2 extra partitions, 0-1 extra bursts, for schedule diversity.
  const std::uint64_t extra_partitions = rng.next_below(3);
  for (std::uint64_t i = 0; i < extra_partitions; ++i) {
    const common::NodeId a = node();
    common::NodeId b = node();
    while (b == a) b = node();
    schedule.partition_for(time_in(0.0, 0.6), a, b,
                           span / 8 + rng.next_below(span / 4));
  }
  if (rng.next_below(2) == 1) {
    schedule.loss_burst(time_in(0.3, 0.6), 0.05 + 0.2 * rng.next_double(),
                        span / 8 + rng.next_below(span / 8));
  }
  return schedule;
}

struct ChaosRun {
  bool completed = false;
  // Per receiving node (index 0 unused): FNV fold of every execution's
  // (caller, seq, shard-local time) in execution order.
  std::vector<std::uint64_t> node_digests;
  // Per receiving node, per (caller index * calls_per_link + seq):
  // execution count.  At-most-once + liveness <=> all exactly 1.
  std::vector<std::vector<std::int32_t>> exec_counts;
  std::int64_t failed_calls = 0;
  std::int64_t retransmissions = 0;
  std::int64_t duplicates_suppressed = 0;
  std::int64_t reply_cache_evictions = 0;
  std::int64_t evicted_reexecutions = 0;
  std::int64_t faults_applied = 0;
  std::int64_t pending_fault_events = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t messages_dropped_by_schedule = 0;
  std::int64_t fifo_violations = 0;
  std::int64_t windows = 0;  // ShardedSim runs only
  std::int64_t messages_sent = 0;
  std::int64_t batches_sent = 0;
  std::int64_t batched_invokes = 0;
  std::int64_t batch_singletons = 0;
  std::int64_t oneway_calls = 0;
  std::int64_t oneway_executions = 0;
  // Per receiving node, per (caller index * calls_per_link + seq): one-way
  // note execution count (empty unless params.oneway_notes).
  std::vector<std::vector<std::int32_t>> note_exec_counts;

  // One-ways never retransmit, so a count of 2+ means a duplicate
  // execution — at-most-once broken.  0 is legal (lost to the schedule).
  [[nodiscard]] bool every_note_at_most_once() const {
    for (const auto& per_node : note_exec_counts) {
      for (std::int32_t c : per_node) {
        if (c > 1) return false;
      }
    }
    return true;
  }

  [[nodiscard]] bool every_invoke_exactly_once() const {
    const std::size_t nodes = exec_counts.size() - 1;
    for (std::size_t node = 1; node <= nodes; ++node) {
      const auto& per_node = exec_counts[node];
      const std::size_t calls_per_link = per_node.size() / nodes;
      for (std::size_t k = 0; k < per_node.size(); ++k) {
        const std::size_t caller = k / calls_per_link + 1;
        if (caller == node) continue;  // no self-links in the mesh
        if (per_node[k] != 1) return false;
      }
    }
    return true;
  }
};

namespace chaos_detail {

inline std::uint64_t fold(std::uint64_t digest, std::uint64_t v) {
  return (digest ^ v) * 0x100000001B3ull;
}

}  // namespace chaos_detail

// Runs the all-to-all echo storm under the schedule generated from `seed`.
// threads >= 1: a ShardedSim (laid out by params.shards) with that many
// workers; threads == 0: one sim::Simulation.  Both engines take `seed`,
// so the per-node loss streams match.
inline ChaosRun run_chaos_storm(std::uint64_t seed, int threads,
                                const ChaosParams& params = {}) {
  const int n = params.nodes;
  const net::CostModel model = chaos_model();
  const auto site_of = [&params, n](int node) {
    return node * params.sites / n;
  };

  std::unique_ptr<sim::ShardedSim> ssim;
  std::unique_ptr<sim::Simulation> dsim;
  std::unique_ptr<net::Network> net_ptr;
  if (threads >= 1) {
    std::vector<std::size_t> mapping;  // empty: the identity mapping
    for (int i = 0; params.shards > 0 && i < n; ++i) {
      mapping.push_back(static_cast<std::size_t>(site_of(i)) % params.shards);
    }
    ssim = std::make_unique<sim::ShardedSim>(
        params.shards > 0 ? params.shards : static_cast<std::size_t>(n), seed,
        net::Network::min_link_latency(model));
    net_ptr = std::make_unique<net::Network>(*ssim, model, std::move(mapping));
  } else {
    dsim = std::make_unique<sim::Simulation>(seed);
    net_ptr = std::make_unique<net::Network>(*dsim, model);
  }
  net::Network& net = *net_ptr;

  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (int i = 0; i < n; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (site_of(i) != site_of(j)) {
        net.set_extra_latency(ids[i], ids[j], params.site_hop_us);
      }
    }
  }
  net.refresh_pair_lookaheads();
  for (int i = 0; i < n; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(
        net, ids[i], params.reply_cache_capacity));
    if (params.batching) {
      rmi::BatchOptions batch;
      batch.enabled = true;
      batch.flush_quantum_us = params.flush_quantum_us;
      transports.back()->set_batching(batch);
    }
  }

  ChaosRun run;
  run.node_digests.assign(static_cast<std::size_t>(n) + 1,
                          0xcbf29ce484222325ull);
  run.exec_counts.assign(
      static_cast<std::size_t>(n) + 1,
      std::vector<std::int32_t>(
          static_cast<std::size_t>(n) * params.calls_per_link, 0));

  // Echo service: counts the execution (not the reply!), folds it into the
  // receiver's digest with the shard-local clock, echoes the body back.
  const common::VerbId echo = common::intern_verb("chaos.echo");
  for (int i = 0; i < n; ++i) {
    auto* digest = &run.node_digests[ids[i].value()];
    auto* counts = &run.exec_counts[ids[i].value()];
    auto& sim = net.node_sim(ids[i]);
    const int calls_per_link = params.calls_per_link;
    transports[i]->register_service(
        echo, [digest, counts, &sim, calls_per_link](
                  common::NodeId caller, const serial::BufferChain& body,
                  rmi::Replier replier) {
          serial::ChainReader r(body);
          const std::uint64_t seq = r.read_u64();
          ++(*counts)[(caller.value() - 1) * calls_per_link + seq];
          using chaos_detail::fold;
          *digest = fold(fold(fold(*digest, caller.value()), seq),
                         static_cast<std::uint64_t>(sim.now()));
          replier.ok(body);
        });
  }

  // One-way note service: a pure side effect (no Replier to arm).  Counts
  // fold into the same per-node digests, so a duplicate or misordered
  // one-way execution breaks worker-count determinism too.
  const common::VerbId note = common::intern_verb("chaos.note");
  if (params.oneway_notes) {
    run.note_exec_counts.assign(
        static_cast<std::size_t>(n) + 1,
        std::vector<std::int32_t>(
            static_cast<std::size_t>(n) * params.calls_per_link, 0));
    for (int i = 0; i < n; ++i) {
      auto* digest = &run.node_digests[ids[i].value()];
      auto* counts = &run.note_exec_counts[ids[i].value()];
      auto& sim = net.node_sim(ids[i]);
      const int calls_per_link = params.calls_per_link;
      transports[i]->register_service(
          note, [digest, counts, &sim, calls_per_link](
                    common::NodeId caller, const serial::BufferChain& body,
                    rmi::Replier replier) {
            if (replier.armed()) {
              // The harness only ever sends notes one-way; an armed
              // Replier here would mean the transport misrouted.
              replier.error("chaos.note must arrive one-way");
              return;
            }
            serial::ChainReader r(body);
            const std::uint64_t seq = r.read_u64();
            ++(*counts)[(caller.value() - 1) * calls_per_link + seq];
            using chaos_detail::fold;
            *digest =
                fold(fold(fold(*digest, caller.value() ^ 0xFFFFFFFFull), seq),
                     static_cast<std::uint64_t>(sim.now()));
          });
    }
  }

  // One windowed pipeline per directed link; completions (ok or failed)
  // are counted per SOURCE node so each slot has exactly one writing
  // shard.
  struct Link {
    rmi::Transport* transport;
    common::NodeId dst;
    std::int64_t next_seq = 0;
    std::int64_t* completed = nullptr;
    std::int64_t* failed = nullptr;
  };
  std::vector<std::int64_t> completed(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::int64_t> failed(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Link> links;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) {
        links.push_back(Link{transports[i].get(), ids[j], 0,
                             &completed[ids[i].value()],
                             &failed[ids[i].value()]});
      }
    }
  }
  std::function<void(Link&)> launch = [&](Link& link) {
    if (link.next_seq >= params.calls_per_link) return;
    const auto seq = static_cast<std::uint64_t>(link.next_seq++);
    serial::Writer w(8);
    w.write_u64(seq);
    serial::Buffer body = w.take();
    if (params.oneway_notes) {
      link.transport->call_oneway(link.dst, note, body);
    }
    link.transport->call(
        link.dst, echo, std::move(body),
        [&launch, &link](rmi::CallResult r) {
          if (!r.ok) ++*link.failed;
          ++*link.completed;
          launch(link);
        },
        params.call_options);
  };

  // Install the chaos program + the wire-FIFO self-check.
  net::FaultSchedule schedule = random_fault_schedule(seed, params);
  net.set_fifo_checks(true);
  net.set_fault_schedule(std::move(schedule));

  // Horizon ticks: no-op events on node 0's context that keep virtual time
  // advancing past the last schedule entry even if every call completes
  // early, so every entry is guaranteed to apply during the run.
  const common::SimTime horizon =
      params.fault_t0_us + params.fault_span_us * 2;
  for (common::SimTime t = 500; t <= horizon; t += 500) {
    net.node_sim(ids[0]).schedule_at(t, [] {}, sim::Wake::No);
  }

  for (auto& link : links) {
    for (int w = 0; w < params.window; ++w) launch(link);
  }

  const std::int64_t total =
      static_cast<std::int64_t>(n) * (n - 1) * params.calls_per_link;
  auto done = [&] {
    std::int64_t sum = 0;
    for (std::int64_t c : completed) sum += c;
    return sum == total && net.pending_fault_events() == 0;
  };
  // Generous virtual-time deadline: a liveness bug fails the run instead
  // of hanging the test.
  const common::SimTime deadline = 60'000'000;  // 60 simulated seconds
  if (threads >= 1) {
    run.completed = ssim->run_until(done, threads, deadline);
    run.windows = ssim->windows();
  } else {
    run.completed = dsim->run_until(done, deadline);
  }
  const auto counter = [&](const char* key) {
    return ssim ? ssim->counter(key) : dsim->stats().counter(key);
  };
  run.retransmissions = counter("rmi.retransmissions");
  run.duplicates_suppressed = counter("rmi.duplicates_suppressed");
  run.reply_cache_evictions = counter("rmi.reply_cache_evictions");
  run.evicted_reexecutions = counter("rmi.evicted_reexecutions");
  run.faults_applied = counter("net.faults_applied");
  run.messages_dropped = counter("net.messages_dropped");
  run.messages_dropped_by_schedule = counter("net.messages_dropped_by_schedule");
  run.fifo_violations = counter("net.fifo_violations");
  run.messages_sent = counter("net.messages_sent");
  run.batches_sent = counter("rmi.batches_sent");
  run.batched_invokes = counter("rmi.batched_invokes");
  run.batch_singletons = counter("rmi.batch_singletons");
  run.oneway_calls = counter("rmi.oneway_calls");
  run.oneway_executions = counter("rmi.oneway_executions");
  for (std::int64_t f : failed) run.failed_calls += f;
  run.pending_fault_events =
      static_cast<std::int64_t>(net.pending_fault_events());
  return run;
}

}  // namespace mage::testing
