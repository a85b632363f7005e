// One policy call: rmi::CallPolicy and rmi::call.
//
// Every knob a caller may put on an RMI call lives in ONE struct,
// rmi::CallPolicy: the per-attempt transport budget, retries with
// backoff, an overall deadline, a hedge request after a latency
// threshold.  rmi::call runs one call under a policy.  A policy with no
// deadline, retry or hedge is exactly Transport::call with the policy's
// attempt options; otherwise one per-call state, owned by its own
// callbacks and timers, runs the deadline, then retries with backoff,
// then each attempt as a primary plus an optional hedge.
//
// Determinism: every timer is simulated, backoff jitter is drawn from the
// calling node's own stream (Network::node_rng: engine seed and node id,
// not the shard), and completions are delivered on the calling node's
// shard — a policy call replays bit-identically at any worker count and
// under any node:shard mapping.  Cancellation rides Transport::cancel, so
// a hedge winner silences the losing branch's retransmissions outright
// ("rmi.cancelled_calls").
//
// At-most-once caveat — read before enabling retries or hedging: a retry
// (or hedge) is a NEW request id, so the transport's duplicate suppression
// does NOT cover it and a non-idempotent verb can execute twice.
// Transport-level retransmission (CallPolicy::attempt_transmissions, same
// request id, reply-cache-deduplicated) is the only at-most-once-safe
// retry.  Reserve max_retries/hedging for idempotent verbs: lookups, load
// probes, directory resolves, and convergent operations like mage.move.
#pragma once

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "rmi/transport.hpp"

namespace mage::rmi {

// The unified per-call policy.  A default-constructed policy behaves like a
// bare Transport::call: one attempt, transport-level retransmission only,
// no deadline, no hedge.
struct CallPolicy {
  // Overall deadline for the whole call (all retries and hedges included).
  // 0 disables.  Expiry completes the call with an "rmi call ... deadline
  // exceeded" failure and counts "rmi.deadline_exceeded".
  common::SimDuration deadline_us = 0;

  // Per-attempt budget, forwarded to Transport::call: retransmission
  // period and how many transmissions of the SAME request id to make
  // before the attempt fails.  At-most-once safe.
  common::SimDuration attempt_timeout_us = 150'000;
  int attempt_transmissions = 24;

  // Retries: fresh request ids (see at-most-once caveat in the header
  // comment).  0 disables.  Counted in "rmi.retries".
  int max_retries = 0;
  common::SimDuration backoff_base_us = 4'000;
  double backoff_multiplier = 2.0;
  // Fractional jitter j: each backoff is scaled by a factor drawn
  // uniformly from [1-j, 1+j] using the calling node's own stream.
  // 0 disables.
  double backoff_jitter = 0.0;

  // Hedging: after this long without a reply, issue a second identical
  // attempt and take whichever answers first (the loser is cancelled).
  // 0 disables.  Counted in "rmi.hedged_calls" / "rmi.hedge_wins".
  common::SimDuration hedge_after_us = 0;

  [[nodiscard]] CallOptions attempt_options() const {
    return CallOptions{attempt_timeout_us, attempt_transmissions};
  }

  // Backoff before retry number `retry` (1-based): base * multiplier^(n-1),
  // jittered.  Never returns less than 1us so a retry is always an event.
  [[nodiscard]] common::SimDuration backoff_us(int retry,
                                               common::Rng& rng) const;

  // Registers the counters calls under this policy can bump, so a stats
  // dump lists them (at zero) from the moment a client adopts the policy.
  void register_counters(common::StatsRegistry& stats) const;
};

// Runs one call from `transport`'s node under `policy`; `done` fires
// exactly once, on the calling node's shard.
void call(Transport& transport, const CallPolicy& policy, common::NodeId dest,
          common::VerbId verb, serial::BufferChain body,
          Transport::Callback done);

}  // namespace mage::rmi
