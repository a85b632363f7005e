// Seed-replayable chaos: random fault schedules for the storm and the
// other chaos tests, replayed bit-identically under any engine layout.
//
// One 64-bit seed determines EVERYTHING about a chaos run: the fault
// schedule (via its own Rng stream), the per-NODE loss RNG streams (each
// seeded from the engine seed and the node's id, so every IID loss
// decision is a function of the node's own send sequence — surviving any
// node:shard remapping), and therefore every drop, retransmission,
// duplicate, and re-delivery.  `chaos_storm(seed)` is the storm scenario
// the chaos tests replay through storm::run_storm
// (bench/support/storm_harness.hpp), so tests can assert:
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
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "support/storm_harness.hpp"

namespace mage::testing {

// What random_fault_schedule draws over: nodes 1..nodes, and the window
// [t0, t0 + span] every fault lands in.  Every partition heals and every
// crash restarts by the end of the span.
struct ChaosParams {
  int nodes = 8;
  common::SimTime fault_t0_us = 1'000;
  common::SimDuration fault_span_us = 6'000;
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

// The chaos storm: 8 nodes, all-to-all, 30 echo calls per link with 4 in
// flight, an adequately sized reply cache, and the schedule drawn from
// `seed` (which also seeds the engine).  The retry budget (3 ms x 64
// attempts) rides far past the 6 ms fault span, so no invoke is ever lost
// to the schedule.  Every node is a gateway, so splitting the nodes into
// sites keeps every cross-site pair linked.
inline storm::Scenario chaos_storm(std::uint64_t seed) {
  const ChaosParams params;
  storm::Scenario s;
  s.seed = seed;
  s.model = chaos_model();
  s.nodes = params.nodes;
  s.gateways = params.nodes;
  s.calls_per_link = 30;
  s.gateway_calls = 30;
  s.window = 4;
  s.call_options = rmi::CallOptions{/*retry_timeout_us=*/3'000,
                                    /*max_attempts=*/64};
  s.faults = random_fault_schedule(seed, params);
  return s;
}

}  // namespace mage::testing
