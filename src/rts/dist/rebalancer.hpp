// rts::Rebalancer: load-driven partition migration.
//
// Runs *inside* the simulated federation on one node's shard.  Each tick
// it polls loads through a (typically hedged — probes are idempotent)
// AsyncClient, asks the chosen victim node for its partition manifest
// (mage.manifest: the host's authoritative registry view, not a guess from
// a client table), and issues `mage.move`s through a default-policy mover.
// Two policies:
//
//   * central  — the storm_balancer shape: one instance probes every node,
//     migrates a partition from the hottest to the coolest when the skew
//     exceeds the configured margin.
//   * lifeline — the GLB shape (Finnerty et al.'s relocatable-collection
//     work stealing): one instance per node; when its OWN node is idle it
//     probes its lifeline buddies and steals a partition TOWARD itself
//     from the hottest one.  Work follows data: migrating the partition
//     moves the apply/expand service cost to the idle node.
//
// Every tick is scheduled sim::Wake::No on the owning node's shard and
// wakes the simulation itself (ticks() is driver-visible), and every
// decision consumes only same-shard state and facade futures, so the whole
// policy replays bit-identically at any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "net/network.hpp"
#include "rts/async_client.hpp"
#include "rts/future.hpp"

namespace mage::rts::dist {

class Rebalancer {
 public:
  struct Config {
    // Victim filter: only components whose name starts with this prefix
    // are eligible (use partition_prefix(base) for one collection).
    std::string prefix;
    common::SimDuration tick_us = 10'000;
    common::SimTime start_at_us = 0;
    // A migration needs: victim load > min_load, and (victim - target)
    // load skew > skew_margin.
    double min_load = 1.0;
    double skew_margin = 1.0;
    int max_moves_per_tick = 1;
    std::int64_t max_ticks = -1;  // <0: tick until the run stops
    // Lifeline mode (see header).  `buddies` is this node's lifeline
    // graph; central mode ignores it and probes `nodes` instead.
    bool lifeline = false;
    double idle_ceiling = 0.5;
    std::vector<common::NodeId> buddies;
  };

  // `prober` issues load/manifest probes (its policy may hedge/retry —
  // both are idempotent); `mover` issues the moves (default policy: moves
  // converge on their own, channel retries stay off).  Both clients must
  // live on the same node, which is the node this rebalancer runs on.
  Rebalancer(net::Network& net, AsyncClient& prober, AsyncClient& mover,
             std::vector<common::NodeId> nodes, Config config);

  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  // Schedules the first tick at config.start_at_us, or now if that has
  // passed.  Driver context, while the run is stopped.
  void start();

  [[nodiscard]] std::int64_t moves_issued() const { return moves_issued_; }
  [[nodiscard]] std::int64_t ticks() const { return ticks_done_; }

 private:
  void tick();
  void reschedule();
  void central_round();
  void lifeline_round();
  // Asks `victim` for its manifest and moves up to `budget` of its
  // prefix-matching partitions to `target`.
  void steal(common::NodeId victim, common::NodeId target, int budget);
  void round_done() { in_flight_ = false; }

  [[nodiscard]] sim::Simulation& sim();

  net::Network& net_;
  AsyncClient& prober_;
  AsyncClient& mover_;
  std::vector<common::NodeId> nodes_;
  Config config_;
  common::NodeId self_;

  bool in_flight_ = false;  // one probe->steal round outstanding at a time
  std::int64_t ticks_done_ = 0;
  std::int64_t moves_issued_ = 0;
  std::int64_t* tick_counter_;   // "rts.rebalance_ticks"
  std::int64_t* move_counter_;   // "rts.rebalance_moves"
  std::int64_t* steal_counter_;  // "rts.lifeline_steals"
};

}  // namespace mage::rts::dist
