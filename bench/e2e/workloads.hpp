// The four closed-loop workloads of the end-to-end benchmark.
//
// Every round builds a fresh federation from the seed, runs it to
// completion on the sharded engine at the requested worker count, checks
// its outputs and returns what bench_e2e reports.  Same seed, same
// inputs: per-node digests, latency histograms and counters are identical
// at every worker count — bench_e2e checks that across rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "histogram.hpp"

namespace e2e {

enum class Kind { Storm, StormBatch, Wan, Mobile };

struct Workload {
  const char* name;
  Kind kind;
};

// Null when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

// One finished round.  An op is one echo call, or one invoke on `mobile`.
struct Round {
  double setup_s = 0;  // federation build until the first op is issued
  double run_s = 0;    // first op issued until every op completed
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::int64_t windows = 0;
  // Per-node digests (echo meshes: delivery order at each receiver;
  // mobile: completion order at each generator, then each session's
  // execution order) — identical at any worker count.
  std::vector<std::uint64_t> digests;
  LatencyHistogram latency;  // issue -> completion, simulated us
  std::map<std::string, std::int64_t> counters;  // engine registry sums
  std::int64_t deep_copy_bytes = 0;  // serial::Buffer deep copies
  std::vector<std::int64_t> move_latency_us;  // mobile: issue -> moved
  // Share of messages that cross shards (mailbox + barrier path).
  double cross_shard_share = 0;
  std::int64_t shards = 0;
  std::vector<std::string> errors;  // correctness violations; empty = ok
};

// `trace_windows` installs a boundary hook that times every window into
// the active tracer (not on `mobile`: its fault schedule owns the hook).
[[nodiscard]] Round run_round(const Workload& workload, std::uint64_t seed,
                              int workers, bool trace_windows);

// The nominal per-op message shape, for the isolated layer timings.
struct MessageMix {
  std::size_t shards = 1;
  std::size_t queue_depth = 1;      // pending events per shard
  bool batched = false;
  bool mobile = false;              // proto InvokeRequest/TransferRequest
  double large_arg_share = 0;       // mobile: 16 KB args vs 64 B
  std::size_t small_arg_bytes = 0;
  std::size_t large_arg_bytes = 0;
  std::size_t state_bytes = 0;      // mobile: migrated session state
};
[[nodiscard]] MessageMix message_mix(const Workload& workload);

}  // namespace e2e
