// Simulated network connecting MAGE namespaces.
//
// Responsibilities:
//   * node table: each cooperating VM registers and installs a message
//     handler (the MAGE server's dispatch entry point);
//   * delivery timing from the CostModel: propagation + serialization onto
//     a shared-medium wire + receive CPU, plus one-time connection setup
//     per (from, to) pair (models TCP/RMI handshake and explains the
//     paper's cold-vs-warm split in Table 3);
//   * in-order delivery per directed link (TCP semantics);
//   * fault injection: IID message loss, per-link partitions and node
//     crashes, used by the at-most-once RMI tests ("protocols must recover
//     from message loss", Section 4.3) — mutable ad-hoc while stopped, or
//     mid-run through a scheduled net::FaultSchedule whose entries apply at
//     their exact times on every shard (see net/fault_schedule.hpp);
//   * tracing: optional per-message trace that benches turn into the
//     paper's protocol figures;
//   * a per-node load metric for load-directed mobility policies
//     (the paper's `cloc.getLoad()`).
//
// Execution model.  Nodes live on shards — sim::Simulation contexts, each
// with its own queue, clock, RNG and stats registry.  A Network over one
// sim::Simulation is the one-shard case: every node on shard 0, no node
// limit.  A Network over a sim::ShardedSim places node i on the shard the
// node:shard mapping assigns it (identity — node i on shard i — by
// default; pass an affinity mapping to cluster chatty nodes, see
// net/affinity.hpp).  One set of rules covers every layout:
//   * a message between nodes that share a shard is scheduled directly
//     into that shard's queue; a cross-shard message is posted through the
//     ShardedSim per-link mailboxes, and every cross-shard delay is >= the
//     shard pair's lookahead matrix entry (refresh_pair_lookaheads derives
//     the matrix from the cost model + per-link extra latency).  Message
//     TIMING is identical either way, and deliveries carry their source
//     node id as the event-queue tie key;
//   * each node keeps one record per directed link it sends on (warmth,
//     ordering floor, extra latency, link faults, FIFO stamps), indexed
//     by peer id; a delivery writes only the receiver's record for the
//     sender (a TCP accept warms its reverse direction, and the
//     always-on wire-FIFO check verifies the stamp);
//   * loss draws come from a per-node stream seeded from the engine seed
//     and the node id;
//   * each fault-schedule entry applies at its exact time on every shard,
//     to that shard's own copy of the fault state and the link records of
//     that shard's nodes.
// So per-node event order is bit-identical under any mapping and any
// worker count, one Simulation included.
// The threading contract (enforced, not advisory): all configuration —
// adding nodes, handlers, ad-hoc fault injection, tracing — throws while
// ShardedSim workers run; per-node state (counters, link records, the
// loss stream, the load metric) is only ever touched from the owning
// node's shard, and a shard reads only its own copy of the fault state.
// See docs/ARCHITECTURE.md.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/message.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace mage::net {

class Network {
 public:
  using Handler = std::function<void(Message)>;

  // One shard: every node on `sim`, no node limit.
  Network(sim::Simulation& sim, CostModel model);

  // `node_to_shard` maps node i (the i-th add_node, NodeId i+1) to its
  // shard; at most node_to_shard.size() nodes may be added.  Empty (the
  // default) means the identity mapping — node i on shard i, capacity
  // sharded.shard_count().  Build a clustering mapping with
  // net::affinity_mapping().  Requires the model's minimum cross-node
  // delay to cover the sharded base lookahead (checked at construction).
  Network(sim::ShardedSim& sharded, CostModel model,
          std::vector<std::size_t> node_to_shard = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Cancels this network's fault appliers that have not fired yet.
  ~Network();

  // --- topology -------------------------------------------------------

  // Adds a namespace/VM to the federation; label is for traces only.
  common::NodeId add_node(std::string label);

  void set_handler(common::NodeId node, Handler handler);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] bool has_node(common::NodeId node) const {
    return node.value() >= 1 && node.value() <= nodes_.size();
  }
  [[nodiscard]] const std::string& label(common::NodeId node) const;
  [[nodiscard]] std::vector<common::NodeId> node_ids() const;

  // --- traffic ----------------------------------------------------------

  // Sends msg; delivery is scheduled on the simulation.  A message to the
  // sender's own node is delivered after local_invoke_us with no wire cost
  // and is never dropped (loopback).  Must run on the sending node's shard
  // (true by construction: sends originate from transports, whose events
  // run on their own shard).
  void send(Message msg);

  // --- fault injection --------------------------------------------------
  //
  // The ad-hoc mutators below write every shard's copy of the fault state,
  // so they are frozen while ShardedSim workers run (they throw, pointing
  // at FaultSchedule).  To change faults MID-RUN, install a FaultSchedule:
  // each entry applies at its exact time on every shard, so one seed
  // replays the whole chaos run bit-identically at any worker count and
  // under any node:shard mapping.

  // IID probability that a non-loopback message is dropped in flight.
  // (Per-link loss rates are FaultSchedule entries.)
  void set_loss_rate(double p);

  // Cuts / restores both directions between a and b.  Both must be on
  // this network, as must the node of set_node_down.
  void set_partitioned(common::NodeId a, common::NodeId b, bool partitioned);

  // Crashes / restarts a node: while down, every message to or from it is
  // dropped (its hosted objects are lost to the federation until restart —
  // MAGE has no replication; callers see timeouts and forwarding chains
  // pointing into the void).  node_down reads the node's own shard copy.
  void set_node_down(common::NodeId node, bool down);
  [[nodiscard]] bool node_down(common::NodeId node) const;

  // Installs `schedule` (replacing any previous one, applied or not): one
  // non-waking applier event per entry at its exact time (or now, if that
  // has passed) on every shard.  Configuration, so frozen while workers
  // run; entries referencing unknown nodes throw.  Each applied entry
  // counts once in "net.faults_applied" (shard 0's registry), and drops
  // the schedule's faults cause count in the per-node
  // "net.messages_dropped_by_schedule".
  void set_fault_schedule(FaultSchedule schedule);

  // The most entries any shard still has to apply (introspection for
  // tests/benches).
  [[nodiscard]] std::size_t pending_fault_events() const;

  // Number of transitions applied to the (a, b) link, by schedule or
  // ad-hoc mutator — each cut and each heal bumps the epoch, as does each
  // crash and each restart of either endpoint (a restarted node's wire
  // state is gone, so its links are new incarnations).  Reads a's record.
  //
  // Wire-FIFO self-check, always on: every non-loopback message carries
  // its link's epoch and a per-directed-link sequence number stamped at
  // send (sender-owned), verified monotonic within the epoch at delivery
  // (receiver-owned); a reorder bumps the receiver's "net.fifo_violations".
  [[nodiscard]] std::int64_t link_epoch(common::NodeId a,
                                        common::NodeId b) const;

  // Extra one-way latency for a directed link (e.g. a WAN hop).  Both
  // endpoints must be on this network and `extra` must be >= 0.
  void set_extra_latency(common::NodeId from, common::NodeId to,
                         common::SimDuration extra);

  // --- load metric --------------------------------------------------------

  // Contract: call from the driver while stopped or from the owning
  // node's shard; reading another node's load mid-run is what the
  // `mage.get_load` RMI verb is for.
  void set_load(common::NodeId node, double load);
  [[nodiscard]] double load(common::NodeId node) const;

  // --- per-node randomness --------------------------------------------------

  // The node's retry-jitter stream (rmi::CallPolicy::backoff_jitter).  Like
  // the loss stream it is seeded from the engine seed and the node id
  // only, so a retry schedule is the same under any node:shard mapping.
  // Owning shard only.
  [[nodiscard]] common::Rng& jitter_rng(common::NodeId node) {
    return state(node).jitter_rng;
  }

  // --- administrative domains ------------------------------------------------

  // Assigns the node to a named administrative domain (Section 7's WAN
  // vision: "competing and disjoint administrative domains").  Empty by
  // default; access-control policies may key on it.
  void set_domain(common::NodeId node, std::string domain);
  [[nodiscard]] const std::string& domain(common::NodeId node) const;

  // --- introspection -----------------------------------------------------

  [[nodiscard]] const CostModel& cost_model() const { return model_; }

  // The trace is a single ordered stream, so tracing throws on a network
  // with more than one shard (their workers would interleave it).
  void set_tracing(bool enabled);
  [[nodiscard]] const std::vector<TraceEntry>& trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

  // Forgets all warm connections, so the next message on every pair pays
  // connection setup again (benches use this between "single" runs).
  void reset_connections();

  // The simulation context a node's events run on: its shard.
  [[nodiscard]] sim::Simulation& node_sim(common::NodeId node) {
    return *shards_[shard_of(node)];
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  // The shard a node's events run on (0 for every node over one
  // Simulation).
  [[nodiscard]] std::size_t shard_of(common::NodeId node) const {
    assert(node.value() >= 1 && node.value() <= shard_map_.size());
    return shard_map_[node.value() - 1];
  }

  // Recomputes the ShardedSim pair-lookahead matrix from the cost model,
  // the per-link extra latencies and the node:shard mapping: entry (p, q)
  // becomes the minimum delay any message from a node on p to a node on q
  // can experience (min_link_latency + the smallest extra latency among
  // those directed links).  Call after configuring extra latencies and
  // before running; ends by validating the installed matrix (below).
  // Configuration; with one shard there is no matrix and it does nothing.
  void refresh_pair_lookaheads();

  // Checks the installed matrix against this network: every entry must be
  // >= 1 simulated microsecond and no cross-shard directed link may be
  // able to deliver faster than its shard pair's entry claims — a matrix
  // that over-promises would make ShardedSim::post throw mid-window (or,
  // unchecked, corrupt the conservative bound).  Throws naming the
  // offending link.
  void validate_pair_lookaheads() const;

  // The minimum delay any cross-node message can experience under `model`
  // — the conservative lookahead a ShardedSim driving this network must
  // use.  (Connection setup, wire time, extra link latency and ordering
  // floors only ever add on top.)
  [[nodiscard]] static common::SimDuration min_link_latency(
      const CostModel& model) {
    return model.propagation_us + model.per_message_cpu_us;
  }

 private:
  // Who installed a fault: nobody, an ad-hoc mutator or a FaultSchedule
  // entry.  Drops a Scheduled fault causes also count in
  // "net.messages_dropped_by_schedule".
  enum class Cause : std::uint8_t { None, AdHoc, Scheduled };

  // One directed link, held by its sending node and indexed by the peer's
  // id.  Only the owner's shard touches it: sends write the floor, warmth
  // and stamp; that shard's fault appliers write the fault fields and the
  // epoch; deliveries FROM the peer write `warm` (the accept) and the
  // `seen_*` check state.
  struct LinkState {
    // TCP ordering: no message on the link may be delivered before one
    // sent earlier on it.
    common::SimTime floor = 0;
    common::SimDuration extra_latency = 0;
    double loss_rate = 0.0;  // layered after the global draw
    std::int64_t epoch = 0;  // see link_epoch()
    std::uint64_t sent_seq = 0;  // last wire_seq stamped on this link
    // Last wire_seq delivered from the peer, and the link epoch it carried;
    // a new epoch resets the expectation (the peer's stamps restarted).
    std::uint64_t seen_seq = 0;
    std::int64_t seen_epoch = 0;
    bool warm = false;  // sends skip connection setup
    Cause partition = Cause::None;  // None: not cut
    Cause loss_cause = Cause::None;
  };

  struct NodeState {
    std::string label;
    Handler handler;
    double load = 0.0;
    std::string domain;
    std::vector<LinkState> links;  // by peer id (index 0 unused)
    // Loss draws come from this per-NODE stream (seeded from the engine
    // seed + the node id at add_node), so a node's drop pattern is a
    // function of its own send sequence — identical under any node:shard
    // mapping, which a shared shard stream could not be once two senders
    // co-locate.
    common::Rng loss_rng{0};
    common::Rng jitter_rng{0};  // see jitter_rng()
    // Hot-path counters, resolved from the node's own shard registry at
    // add_node.
    std::int64_t* messages_sent = nullptr;
    std::int64_t* bytes_sent = nullptr;
    std::int64_t* messages_dropped = nullptr;
    std::int64_t* messages_delivered = nullptr;
    std::int64_t* connections_opened = nullptr;
    std::int64_t* messages_dropped_by_schedule = nullptr;
    std::int64_t* messages_dropped_by_link_loss = nullptr;
    std::int64_t* fifo_violations = nullptr;
  };

  // One shard's copy of the network-wide fault state.  The ad-hoc mutators
  // write every copy while stopped; mid-run, a schedule entry's applier on
  // shard s writes copy s only, and only shard s's senders read it.
  struct FaultState {
    double loss_rate = 0.0;
    Cause loss_cause = Cause::None;
    std::vector<Cause> down;  // by node id: None while the node is up
    // Schedule entries applied here, and this shard's applier events
    // (cancelled on schedule replacement and in the destructor: they
    // capture `this`).
    std::size_t applied = 0;
    std::vector<sim::EventId> appliers;
  };

  [[nodiscard]] NodeState& state(common::NodeId node);
  [[nodiscard]] const NodeState& state(common::NodeId node) const;
  // The least delay the link can deliver in: the model's floor plus its
  // extra latency.  Sends add wire time and connection setup on top.
  [[nodiscard]] common::SimDuration link_delay(const LinkState& link) const {
    return min_link_latency(model_) + link.extra_latency;
  }
  // Throws, naming `what` and the node, unless the node is on this network.
  void require_node(common::NodeId node, const char* what) const;

  // Throws while sharded workers run: all global configuration is frozen.
  void require_config_window(const char* what) const;
  // Same freeze, but for the ad-hoc fault mutators: the error points at
  // FaultSchedule, the supported way to mutate faults mid-run.
  void require_fault_window(const char* what) const;
  // An ad-hoc mutation: applies `event` to every shard's copy.
  void apply_everywhere(const FaultEvent& event);
  // Applies `event` to shard `shard`'s copy and to the link records of the
  // nodes on that shard; `scheduled` records its cause.  So each record is
  // written exactly once per event, by its owner's shard.
  void apply_fault(std::size_t shard, const FaultEvent& event, bool scheduled);
  // Cancels every shard's applier events that have not fired yet.
  void cancel_fault_appliers();

  sim::ShardedSim* sharded_ = nullptr;  // null over one Simulation
  std::vector<sim::Simulation*> shards_;
  std::uint64_t seed_;  // the engine seed: per-node loss streams derive from it
  CostModel model_;
  // shard_map_[i] is node i+1's shard.  Over a ShardedSim its size is the
  // node capacity; over one Simulation it grows with add_node.
  std::vector<std::size_t> shard_map_;
  std::vector<NodeState> nodes_;
  std::vector<FaultState> faults_;  // one copy per shard
  std::vector<FaultEvent> fault_events_;  // the installed schedule, sorted
  std::int64_t* faults_applied_ = nullptr;  // shard 0's registry
  bool tracing_ = false;
  std::vector<TraceEntry> trace_;
};

}  // namespace mage::net
