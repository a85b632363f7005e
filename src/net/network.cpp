#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/error.hpp"

namespace mage::net {

Network::Network(sim::Simulation& sim, CostModel model)
    : shards_{&sim}, seed_(sim.seed()), model_(model), slots_(1), faults_(1) {
  faults_applied_ = sim.stats().counter_handle("net.faults_applied");
}

Network::Network(sim::ShardedSim& sharded, CostModel model,
                 std::vector<std::size_t> node_to_shard)
    : sharded_(&sharded),
      seed_(sharded.seed()),
      model_(model),
      shard_map_(std::move(node_to_shard)),
      slots_(sharded.shard_count()),
      columns_(sharded.shard_count() * sharded.shard_count()),
      faults_(sharded.shard_count()) {
  if (min_link_latency(model_) < sharded.lookahead()) {
    throw common::MageError(
        "cost model's minimum cross-node delay (" +
        std::to_string(min_link_latency(model_)) +
        "us) does not cover the sharded lookahead (" +
        std::to_string(sharded.lookahead()) +
        "us): a message could arrive inside the conservative window");
  }
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    shards_.push_back(&sharded.shard(s));
  }
  if (shard_map_.empty()) {
    // Identity mapping: node i on shard i, the historical 1:1 layout.
    shard_map_.resize(sharded.shard_count());
    for (std::size_t i = 0; i < shard_map_.size(); ++i) shard_map_[i] = i;
  } else {
    for (std::size_t i = 0; i < shard_map_.size(); ++i) {
      if (shard_map_[i] >= sharded.shard_count()) {
        throw common::MageError(
            "node:shard mapping sends node " + std::to_string(i + 1) +
            " to shard " + std::to_string(shard_map_[i]) +
            ", but the ShardedSim has only " +
            std::to_string(sharded.shard_count()) + " shards");
      }
    }
  }
  faults_applied_ = sharded.shard(0).stats().counter_handle(
      "net.faults_applied");
  nodes_.reserve(shard_map_.size());
  sharded.set_lander(
      [this](std::size_t to, std::size_t side) { land(to, side); });
}

Network::~Network() {
  // Schedule appliers capture `this`; leaving them behind would dangle.
  cancel_fault_appliers();
  if (sharded_ != nullptr) sharded_->set_lander(nullptr);
}

void Network::cancel_fault_appliers() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (sim::EventId id : faults_[s].appliers) shards_[s]->cancel(id);
    faults_[s].appliers.clear();
  }
}

void Network::require_config_window(const char* what) const {
  if (sharded_ != nullptr && sharded_->running()) {
    throw common::MageError(
        std::string("network configuration is frozen while sharded workers "
                    "run: ") +
        what);
  }
}

void Network::require_fault_window(const char* what) const {
  if (sharded_ != nullptr && sharded_->running()) {
    throw common::MageError(
        std::string(what) +
        " is frozen while sharded workers run: install a net::FaultSchedule "
        "(Network::set_fault_schedule) before the run — each entry applies "
        "at its exact time on every shard, so faults can change mid-run "
        "without breaking the threading contract or determinism");
  }
}

common::NodeId Network::add_node(std::string label) {
  require_config_window("add_node");
  if (nodes_.size() == shard_map_.size()) {
    if (sharded_ != nullptr) {
      throw common::MageError("sharded network is full: the node:shard "
                              "mapping covers " +
                              std::to_string(shard_map_.size()) +
                              " nodes, cannot add node '" + label + "'");
    }
    shard_map_.push_back(0);  // one Simulation: every node on shard 0
  }
  const common::NodeId id{static_cast<std::uint32_t>(nodes_.size() + 1)};
  NodeState state;
  state.label = std::move(label);
  // Per-node loss stream, a function of the engine seed and the node id
  // only — NOT of the shard — so chaos drop patterns survive remapping.
  state.loss_rng = common::Rng(seed_ ^ (0x9E3779B97F4A7C15ull * id.value()));
  // The node's own stream, by the same rule with its own odd multiplier.
  state.node_rng = common::Rng(seed_ ^ (0xD1B54A32D192ED03ull * id.value()));
  // Records cover every peer the network can hold: over a ShardedSim its
  // capacity, sized at the first add; over one Simulation, the nodes so far.
  const std::size_t peers = shard_map_.size() + 1;
  state.links.resize(peers);
  nodes_.push_back(std::move(state));
  for (NodeState& node : nodes_) node.links.resize(peers);
  for (FaultState& faults : faults_) faults.down.resize(peers);
  NodeState& stored = nodes_.back();
  auto& stats = node_sim(id).stats();
  stored.messages_sent = stats.counter_handle("net.messages_sent");
  stored.bytes_sent = stats.counter_handle("net.bytes_sent");
  stored.messages_dropped = stats.counter_handle("net.messages_dropped");
  stored.messages_delivered = stats.counter_handle("net.messages_delivered");
  stored.connections_opened = stats.counter_handle("net.connections_opened");
  stored.messages_dropped_by_schedule =
      stats.counter_handle("net.messages_dropped_by_schedule");
  stored.messages_dropped_by_link_loss =
      stats.counter_handle("net.messages_dropped_by_link_loss");
  stored.fifo_violations = stats.counter_handle("net.fifo_violations");
  return id;
}

Network::NodeState& Network::state(common::NodeId node) {
  assert(has_node(node));
  return nodes_[node.value() - 1];
}

const Network::NodeState& Network::state(common::NodeId node) const {
  assert(has_node(node));
  return nodes_[node.value() - 1];
}

void Network::require_node(common::NodeId node, const char* what) const {
  if (!has_node(node)) {
    throw common::MageError(std::string(what) + ": node " +
                            std::to_string(node.value()) +
                            " is not on this network (it has " +
                            std::to_string(nodes_.size()) + " nodes)");
  }
}

void Network::refresh_pair_lookaheads() {
  require_config_window("refresh_pair_lookaheads");
  const std::size_t shard_total = shards_.size();
  // Tightest delay per directed shard pair: the smallest link_delay among
  // that pair's links (every node pair is a potential link, so any
  // populated pair has a defined minimum).
  std::vector<common::SimDuration> tightest(
      shard_total * shard_total, std::numeric_limits<common::SimDuration>::max());
  for (std::uint32_t a = 1; a <= nodes_.size(); ++a) {
    for (std::uint32_t b = 1; b <= nodes_.size(); ++b) {
      if (a == b) continue;
      const std::size_t pa = shard_map_[a - 1];
      const std::size_t pb = shard_map_[b - 1];
      if (pa == pb) continue;  // intra-shard links never constrain windows
      auto& entry = tightest[pa * shard_total + pb];
      entry = std::min(entry, link_delay(nodes_[a - 1].links[b]));
    }
  }
  for (std::size_t p = 0; p < shard_total; ++p) {
    for (std::size_t q = 0; q < shard_total; ++q) {
      const common::SimDuration la = tightest[p * shard_total + q];
      if (p == q || la == std::numeric_limits<common::SimDuration>::max()) {
        continue;  // no nodes (yet) on one side: leave the uniform default
      }
      sharded_->set_pair_lookahead(p, q, la);
    }
  }
  validate_pair_lookaheads();
}

void Network::validate_pair_lookaheads() const {
  for (std::uint32_t a = 1; a <= nodes_.size(); ++a) {
    for (std::uint32_t b = 1; b <= nodes_.size(); ++b) {
      if (a == b) continue;
      const std::size_t pa = shard_map_[a - 1];
      const std::size_t pb = shard_map_[b - 1];
      if (pa == pb) continue;
      const common::SimDuration delay = link_delay(nodes_[a - 1].links[b]);
      const common::SimDuration la = sharded_->pair_lookahead(pa, pb);
      if (la < 1 || delay < la) {
        throw common::MageError(
            "pair lookahead for shard link " + std::to_string(pa) + " -> " +
            std::to_string(pb) + " is " + std::to_string(la) +
            "us, but link " + nodes_[a - 1].label + " -> " +
            nodes_[b - 1].label + " (node " + std::to_string(a) + " -> " +
            std::to_string(b) + ") can deliver in " + std::to_string(delay) +
            "us under this cost model: a mid-window send on that link would "
            "land inside the conservative window (every entry must be >= 1us "
            "and <= its links' minimum delay)");
      }
    }
  }
}

void Network::set_handler(common::NodeId node, Handler handler) {
  require_config_window("set_handler");
  require_node(node, "set_handler");
  state(node).handler = std::move(handler);
}

const std::string& Network::label(common::NodeId node) const {
  require_node(node, "label");
  return state(node).label;
}

std::vector<common::NodeId> Network::node_ids() const {
  std::vector<common::NodeId> ids;
  ids.reserve(nodes_.size());
  for (std::uint32_t i = 1; i <= nodes_.size(); ++i) {
    ids.push_back(common::NodeId{i});
  }
  return ids;
}

void Network::send(Message msg) {
  NodeState& from = state(msg.from);
  const std::size_t shard = shard_of(msg.from);
  const std::size_t to_shard = shard_of(msg.to);
  sim::Simulation& sender_sim = *shards_[shard];
  // The sender's shard copy: its appliers keep it current to this instant.
  const FaultState& faults = faults_[shard];

  ++*from.messages_sent;
  *from.bytes_sent += static_cast<std::int64_t>(msg.wire_size());

  const common::SimTime sent_at = sender_sim.now();
  const bool loopback = msg.from == msg.to;
  const auto drop = [&](bool by_schedule) {
    ++*from.messages_dropped;
    if (by_schedule) ++*from.messages_dropped_by_schedule;
    if (tracing_) {
      trace_.push_back(TraceEntry{sent_at, -1, msg.from, msg.to, msg.label(),
                                  msg.wire_size(), true});
    }
  };

  common::SimTime deliver_at = sent_at + model_.local_invoke_us;
  if (!loopback) {
    LinkState& link = from.links[msg.to.value()];
    const Cause from_down = faults.down[msg.from.value()];
    const Cause to_down = faults.down[msg.to.value()];
    if (from_down != Cause::None || to_down != Cause::None) {
      drop(from_down == Cause::Scheduled || to_down == Cause::Scheduled);
      return;
    }
    if (link.partition != Cause::None) {
      drop(link.partition == Cause::Scheduled);
      return;
    }
    if (faults.loss_rate > 0.0 && from.loss_rng.next_bool(faults.loss_rate)) {
      drop(faults.loss_cause == Cause::Scheduled);
      return;
    }
    // Per-link loss, layered after the global draw.  The RNG is consulted
    // only when this directed link has a nonzero rate, so runs without
    // per-link faults replay the exact same random stream as before.
    if (link.loss_rate > 0.0 && from.loss_rng.next_bool(link.loss_rate)) {
      ++*from.messages_dropped_by_link_loss;
      drop(link.loss_cause == Cause::Scheduled);
      return;
    }

    common::SimDuration delay =
        link_delay(link) + model_.wire_time(msg.wire_size());
    // One-time connection setup per directed link, unless the peer's own
    // connection already warmed it (see the accept at delivery below).
    if (!link.warm) {
      link.warm = true;
      delay += model_.connection_setup_us;
      ++*from.connections_opened;
    }
    // TCP in-order delivery per directed link.  The floor lives on the
    // sender (only this link's sends touch it), so sharded workers never
    // write foreign node state.
    deliver_at = std::max(sent_at + delay, link.floor);
    link.floor = deliver_at + 1;
    // Wire-FIFO stamp and the link incarnation it belongs to.  Dropped
    // messages never reach this point, so stamps on delivered messages
    // are strictly increasing per directed link and epoch by construction
    // — the delivery-side check verifies the floors preserved that order.
    msg.wire_seq = ++link.sent_seq;
    msg.link_epoch = link.epoch;
  }

  if (tracing_) {
    trace_.push_back(TraceEntry{sent_at, deliver_at, msg.from, msg.to,
                                msg.label(), msg.wire_size(), false});
  }

  if (to_shard == shard) {
    // Same shard (always, over one Simulation): the message takes its slot
    // now, with no mailbox and no barrier wait (the affinity-mapping
    // payoff).  Timing is the same on either path: the mapping changes
    // what carries a message, never when it arrives.
    schedule_delivery(shard, deliver_at, std::move(msg));
  } else {
    // Into the (from, to) mailbox column, for the destination's next drain.
    // deliver_at >= sent_at + the pair's lookahead entry
    // (validate_pair_lookaheads), so it lands outside the current window.
    sharded_->mark_post(shard, to_shard, deliver_at);
    columns_[shard * shards_.size() + to_shard]
        .side[sharded_->write_side()]
        .emplace_back(deliver_at, std::move(msg));
  }
}

void Network::schedule_delivery(std::size_t shard, common::SimTime at,
                                Message&& msg) {
  // The source node id is the event-queue tie key: same-instant arrivals at
  // one node run in source order whichever path scheduled them.
  const std::uint32_t tie = msg.from.value();
  const std::uint32_t slot = slots_[shard].held.emplace(std::move(msg));
  shards_[shard]->schedule_at(
      at,
      [this, shard = static_cast<std::uint32_t>(shard), slot] {
        deliver(shard, slot);
      },
      tie);
}

void Network::land(std::size_t to, std::size_t side) {
  const std::size_t count = shards_.size();
  for (std::size_t from = 0; from < count; ++from) {
    std::vector<InFlight>& items = columns_[from * count + to].side[side];
    for (InFlight& item : items) {
      schedule_delivery(to, item.at, std::move(item.msg));
    }
    items.clear();  // keeps capacity: steady-state drains allocate nothing
  }
}

void Network::deliver(std::size_t shard, std::uint32_t slot) {
  Message& msg = slots_[shard].held[slot];
  auto& node = state(msg.to);
  if (!node.handler) {
    throw common::TransportError("node '" + node.label +
                                 "' has no message handler installed");
  }
  ++*node.messages_delivered;
  // The receiver accepts the connection: its replies ride it free.
  LinkState& back = node.links[msg.from.value()];
  back.warm = true;
  if (msg.wire_seq != 0) {  // loopback carries no stamp
    // Receiver-owned monotonicity check (this runs on the destination's
    // shard).  Gaps are fine — drops consume no stamp — but any
    // reordering on a directed link is a violation.  A new link epoch
    // means the sender crashed/restarted (or the link was cut and healed)
    // since the last delivery: its counters may have started over, so the
    // expectation resets instead of flagging a spurious violation.
    if (msg.link_epoch != back.seen_epoch) {
      back.seen_epoch = msg.link_epoch;
      back.seen_seq = 0;
    }
    if (msg.wire_seq <= back.seen_seq) {
      ++*node.fifo_violations;
    } else {
      back.seen_seq = msg.wire_seq;
    }
  }
  node.handler(msg);
  slots_[shard].held.release(slot);
}

std::size_t Network::messages_held() const {
  std::size_t held = 0;
  for (const ShardSlots& shard : slots_) held += shard.held.live();
  for (const Column& c : columns_) held += c.side[0].size() + c.side[1].size();
  return held;
}

void Network::apply_everywhere(const FaultEvent& event) {
  for (std::size_t s = 0; s < faults_.size(); ++s) {
    apply_fault(s, event, /*scheduled=*/false);
  }
}

void Network::set_loss_rate(double p) {
  require_fault_window("set_loss_rate");
  apply_everywhere(FaultEvent{0, FaultKind::LossRate, p, {}, {}});
}

void Network::set_partitioned(common::NodeId a, common::NodeId b,
                              bool partitioned) {
  require_fault_window("set_partitioned");
  require_node(a, "set_partitioned");
  require_node(b, "set_partitioned");
  apply_everywhere(FaultEvent{
      0, partitioned ? FaultKind::Partition : FaultKind::Heal, 0.0, a, b});
}

std::int64_t Network::link_epoch(common::NodeId a, common::NodeId b) const {
  assert(has_node(b));
  return state(a).links[b.value()].epoch;
}

void Network::set_fault_schedule(FaultSchedule schedule) {
  require_config_window("set_fault_schedule");
  for (const FaultEvent& e : schedule.events()) {
    const bool needs_b = e.kind == FaultKind::Partition ||
                         e.kind == FaultKind::Heal ||
                         e.kind == FaultKind::LinkLoss;
    const bool needs_a = needs_b || e.kind == FaultKind::Crash ||
                         e.kind == FaultKind::Restart;
    if ((needs_a && !has_node(e.a)) || (needs_b && !has_node(e.b))) {
      throw common::MageError(
          "fault schedule references a node not on this network (add all "
          "nodes before set_fault_schedule)");
    }
  }
  // Replacing a schedule orphans its appliers: cancel them.
  cancel_fault_appliers();
  fault_events_ = schedule.sorted();
  // One applier per entry per shard, at the entry's exact time:
  // a shard applies each entry to its own copy of the fault state before
  // any same-instant delivery (deliveries carry tie >= 1), so every sender
  // sees a fault from the same instant on, whatever shard it lives on.
  // Same-time entries apply in schedule order (insertion order breaks the
  // tie).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    FaultState& faults = faults_[s];
    faults.applied = 0;
    faults.appliers.reserve(fault_events_.size());
    for (const FaultEvent& e : fault_events_) {
      faults.appliers.push_back(shards_[s]->schedule_at(
          std::max(e.at, shards_[s]->now()),
          [this, s] {
            FaultState& mine = faults_[s];
            apply_fault(s, fault_events_[mine.applied++], /*scheduled=*/true);
            if (s == 0) ++*faults_applied_;
          }));
    }
  }
}

std::size_t Network::pending_fault_events() const {
  std::size_t pending = 0;
  for (const FaultState& faults : faults_) {
    pending = std::max(pending, fault_events_.size() - faults.applied);
  }
  return pending;
}

void Network::apply_fault(std::size_t shard, const FaultEvent& event,
                          bool scheduled) {
  FaultState& faults = faults_[shard];
  const Cause cause = scheduled ? Cause::Scheduled : Cause::AdHoc;
  // The record of the directed link from -> to, if this shard owns it.
  const auto owned = [&](common::NodeId from,
                         common::NodeId to) -> LinkState* {
    return shard_of(from) == shard ? &state(from).links[to.value()] : nullptr;
  };
  switch (event.kind) {
    case FaultKind::LossRate:
      faults.loss_rate = event.loss_rate;
      faults.loss_cause = cause;
      return;
    case FaultKind::LinkLoss:
      if (LinkState* link = owned(event.a, event.b)) {
        link->loss_rate = event.loss_rate;
        link->loss_cause = cause;
      }
      return;
    case FaultKind::Partition:
    case FaultKind::Heal: {
      // Both directions; each cut and each heal is one epoch transition.
      const Cause cut =
          event.kind == FaultKind::Partition ? cause : Cause::None;
      for (LinkState* link :
           {owned(event.a, event.b), owned(event.b, event.a)}) {
        if (link == nullptr) continue;
        if ((link->partition == Cause::None) != (cut == Cause::None)) {
          ++link->epoch;
        }
        link->partition = cut;
      }
      return;
    }
    case FaultKind::Crash:
    case FaultKind::Restart:
      break;
  }
  // Crash / restart.  The process loses its wire state: every link it
  // touches becomes a new incarnation, and its own FIFO state resets — a
  // restarted sender starts stamping from 1 again, and the bumped epoch
  // tells every receiver to reset its expectation rather than flag
  // spurious fifo_violations.  No timing impact: none of this state feeds
  // delay computation.
  const common::NodeId node = event.a;
  faults.down[node.value()] =
      event.kind == FaultKind::Crash ? cause : Cause::None;
  for (std::uint32_t i = 1; i <= nodes_.size(); ++i) {
    const common::NodeId other{i};
    if (other == node) continue;
    if (LinkState* link = owned(node, other)) ++link->epoch;
    if (LinkState* link = owned(other, node)) ++link->epoch;
  }
  if (shard_of(node) == shard) {
    for (LinkState& link : state(node).links) {
      link.sent_seq = 0;
      link.seen_seq = 0;
      link.seen_epoch = 0;
    }
  }
}

void Network::set_extra_latency(common::NodeId from, common::NodeId to,
                                common::SimDuration extra) {
  require_config_window("set_extra_latency");
  require_node(from, "set_extra_latency");
  require_node(to, "set_extra_latency");
  if (extra < 0) {
    // A negative "extra" could schedule a delivery before its send (the
    // ordering floor clamps only the link's first message) and would
    // undercut the conservative lookahead on a sharded network.
    throw common::MageError(
        "set_extra_latency: extra latency " + std::to_string(extra) +
        "us on link " + label(from) + " -> " + label(to) +
        " is negative (it must be >= 0)");
  }
  state(from).links[to.value()].extra_latency = extra;
}

void Network::set_load(common::NodeId node, double load) {
  require_node(node, "set_load");
  state(node).load = load;
}

double Network::load(common::NodeId node) const {
  require_node(node, "load");
  return state(node).load;
}

void Network::set_node_down(common::NodeId node, bool down) {
  require_fault_window("set_node_down");
  require_node(node, "set_node_down");
  if (node_down(node) == down) return;
  apply_everywhere(FaultEvent{
      0, down ? FaultKind::Crash : FaultKind::Restart, 0.0, node, {}});
}

bool Network::node_down(common::NodeId node) const {
  return faults_[shard_of(node)].down[node.value()] != Cause::None;
}

void Network::set_domain(common::NodeId node, std::string domain) {
  require_config_window("set_domain");
  require_node(node, "set_domain");
  state(node).domain = std::move(domain);
}

const std::string& Network::domain(common::NodeId node) const {
  require_node(node, "domain");
  return state(node).domain;
}

void Network::set_tracing(bool enabled) {
  if (enabled && shards_.size() > 1) {
    throw common::MageError(
        "message tracing needs a one-shard network: workers running more "
        "than one shard would interleave the trace stream");
  }
  tracing_ = enabled;
}

void Network::reset_connections() {
  require_config_window("reset_connections");
  for (auto& node : nodes_) {
    for (LinkState& link : node.links) link.warm = false;
  }
}

}  // namespace mage::net
