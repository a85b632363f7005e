// Isolated timings of each layer's public entry points, on one workload's
// message mix: what one event, one mailbox hop, one window barrier, one
// network delivery, one envelope or batch frame, one RMI round trip and one
// payload encode/decode cost on their own.  Each timing repeats batches of
// work for its share of the budget and reports the median ns per op.
#pragma once

#include "workloads.hpp"

namespace e2e {

struct LayerInputs {
  MessageMix mix;
  int workers = 1;
  double budget_s = 1.0;
  // From the workload's counters: envelopes per batch frame (storm-batch)
  // and migrations per invoke (mobile).
  double invokes_per_frame = 0;
  double transfers_per_invoke = 0;
};

struct LayerTimings {
  double event_ns = 0;          // Simulation::schedule_after + step
  double post_drain_ns = 0;     // ShardedSim::post + mailbox drain + pop
  double barrier_ns = 0;        // one window at `workers` workers
  double barrier_1w_ns = 0;     // one window at 1 worker
  double send_deliver_ns = 0;   // Network::send -> handler
  double envelope_encode_ns = 0;
  double envelope_decode_ns = 0;
  double batch_encode_ns = 0;   // per sub-envelope; 0 when unbatched
  double batch_decode_ns = 0;
  double call_rtt_ns = 0;       // Transport::call echo round trip
  double events_per_call = 0;   // events one isolated echo call runs
  double msgs_per_call = 0;     // network messages one isolated call sends
  double serial_encode_ns = 0;  // payload / proto encode per op
  double serial_decode_ns = 0;
};

[[nodiscard]] LayerTimings time_layers(const LayerInputs& inputs);

}  // namespace e2e
