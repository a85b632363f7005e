// Scheduled fault injection: a time-ordered program of fault events the
// Network applies while a simulation runs.
//
// Ad-hoc fault mutation (`set_loss_rate`, `set_partitioned`, ...) writes
// every shard's copy of the fault state, so it is frozen while ShardedSim
// workers run.  A FaultSchedule closes that gap: the driver builds the
// whole fault program up front (loss-rate ramps, loss bursts, per-link
// partitions and heals, node crash/restart) and installs it with
// `Network::set_fault_schedule`.  Each entry becomes one applier event
// at its exact simulated time on every shard, and each applier writes
// only its own shard's copy, which only that shard's senders read.  An
// entry therefore takes effect at the same instant for every sender,
// whatever shard it lives on — so every loss decision, drop and
// retransmission downstream of it is bit-identical at any worker count
// and under any node:shard mapping, one Simulation included.  One
// seed replays the whole chaos run.
//
// Entries at equal times apply in insertion order (stable sort).  The
// builder is value-semantic: build once, install on a network (or several
// runs' networks) freely.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace mage::net {

enum class FaultKind : std::uint8_t {
  LossRate,   // set the IID loss probability to `loss_rate`
  LinkLoss,   // set the IID loss probability of the directed link a -> b
  Partition,  // cut both directions between nodes `a` and `b`
  Heal,       // restore the (a, b) link
  Crash,      // take node `a` down (messages to/from it are dropped)
  Restart,    // bring node `a` back up
};

struct FaultEvent {
  common::SimTime at = 0;
  FaultKind kind = FaultKind::LossRate;
  double loss_rate = 0.0;           // LossRate/LinkLoss only
  common::NodeId a;                 // link endpoint / sender, Crash/Restart node
  common::NodeId b;                 // link endpoint / receiver
};

class FaultSchedule {
 public:
  // Sets the IID message-loss probability from `at` onward.
  FaultSchedule& loss_rate(common::SimTime at, double p);

  // Loss burst: rate `p` during [at, at + duration), then back to the base
  // rate — the rate set by the most recent `loss_rate()` call on this
  // builder (0 when none), evaluated at build time.
  FaultSchedule& loss_burst(common::SimTime at, double p,
                            common::SimDuration duration);

  // Per-link loss: sets the IID loss probability of the DIRECTED link
  // from -> to from `at` onward, layered on top of the global rate (a
  // message first survives the global draw, then the link draw).  Model
  // one flaky NIC or an asymmetric WAN path without touching the rest of
  // the mesh.
  FaultSchedule& link_loss_rate(common::SimTime at, common::NodeId from,
                                common::NodeId to, double p);

  // Per-link loss burst: rate `p` on from -> to during [at, at + duration),
  // then back to that link's base rate — the rate set by the most recent
  // `link_loss_rate()` call for the same directed link (0 when none),
  // evaluated at build time.
  FaultSchedule& link_loss_burst(common::SimTime at, common::NodeId from,
                                 common::NodeId to, double p,
                                 common::SimDuration duration);

  // Cuts / restores both directions between a and b at `at`.
  FaultSchedule& partition(common::SimTime at, common::NodeId a,
                           common::NodeId b);
  FaultSchedule& heal(common::SimTime at, common::NodeId a, common::NodeId b);

  // Convenience: partition at `at`, heal at `at + duration`.
  FaultSchedule& partition_for(common::SimTime at, common::NodeId a,
                               common::NodeId b, common::SimDuration duration);

  // Crashes node at `at` / restarts it.  While down every message to or
  // from the node is dropped; its objects survive in memory (the simulated
  // "reboot with memory intact" — MAGE has no replication).
  FaultSchedule& crash(common::SimTime at, common::NodeId node);
  FaultSchedule& restart(common::SimTime at, common::NodeId node);

  // Convenience: crash at `at`, restart at `at + duration`.
  FaultSchedule& crash_for(common::SimTime at, common::NodeId node,
                           common::SimDuration duration);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  // Entries sorted by time, ties in insertion order — the order the
  // network applies them in.
  [[nodiscard]] std::vector<FaultEvent> sorted() const;

 private:
  std::vector<FaultEvent> events_;
  double base_loss_ = 0.0;  // last loss_rate(), restored after bursts
  // Last link_loss_rate() per directed link, restored after link bursts.
  std::map<std::pair<common::NodeId, common::NodeId>, double> base_link_loss_;
};

}  // namespace mage::net
