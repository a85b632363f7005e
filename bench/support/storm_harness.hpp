// One storm runner: the all-to-all echo storm behind `bench_storm` and the
// chaos tests, parameterised by a Scenario and run under any Layout.
//
// A Scenario says WHAT runs: the topology (nodes in sites, gateways
// linking the sites, a WAN hop between them), one windowed pipeline of echo
// calls per directed link, the transports' reply cache and batching, a
// fault schedule, and an optional director quorum.  A Layout says WHERE:
// one sim::Simulation, or a ShardedSim with the nodes placed in blocks or
// by affinity.  run_storm(scenario, layout, workers) returns one Record:
// per-node digests of every execution's (caller, seq, shard-local time),
// per-(link, seq) execution counts, the counter snapshot and wall time.
//
// A layout and a worker count choose where a storm runs, never what it
// computes: one seed's per-node loss streams, every fault entry applied at
// its exact time on every shard, and (time, tie, seq) event order make
// every Record of one scenario carry the same digests and counters.
// Callers assert that, plus:
//
//   * exactly-once — every (link, seq) echo executed once despite
//     retransmissions (execution counters, not just reply dedup); one-way
//     notes execute at most once;
//   * per-link FIFO — fault-free runs check it at the service (each
//     execution must advance its link's seq); under faults, where a
//     retransmission legitimately runs after a later first arrival, the
//     network's wire-FIFO self-check is on instead;
//   * liveness — every call answered before the virtual-time deadline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/affinity.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "rts/director.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace mage::storm {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// One FNV-1a step: folds `v` into `digest`.
inline std::uint64_t fold(std::uint64_t digest, std::uint64_t v) {
  return (digest ^ v) * 0x100000001B3ull;
}

// A fast LAN whose cross-node floor (propagation + receive CPU = 550
// simulated us) is the sharded engine's lookahead.  RMI CPU overheads are
// zero, so the windowed pipelines pack each lookahead window with hundreds
// of events per shard — the regime where barrier cost amortizes.
inline net::CostModel lan_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 500;
  m.per_message_cpu_us = 50;
  m.bytes_per_usec = 1250.0;  // 10 Gb/s
  m.connection_setup_us = 500;
  m.local_invoke_us = 1;
  return m;
}

struct Scenario {
  std::uint64_t seed = 2026;  // engine seed: per-node loss streams
  net::CostModel model = lan_model();
  // Topology: `nodes` in `sites` equal blocks of consecutive ids.  Inside
  // a site every ordered pair is a link carrying `calls_per_link` calls.
  // Across sites, the first `gateways` nodes of each site link to those of
  // every other site, carrying `gateway_calls` calls, and every cross-site
  // pair pays `site_hop_us` of extra one-way latency.
  int nodes = 16;
  int sites = 1;
  int gateways = 1;
  common::SimDuration site_hop_us = 0;
  int calls_per_link = 500;
  int gateway_calls = 0;
  int window = 8;  // calls in flight per link
  // Each node's at-most-once ring.  Adaptive: it grows from this floor up
  // to Transport::kReplyCacheCapacity under eviction pressure.
  std::size_t reply_cache_capacity = rmi::Transport::kReplyCacheCapacity;
  bool adaptive_cache = false;
  // Per-link invoke coalescing at this flush quantum; 0 turns it off.
  common::SimDuration flush_quantum_us = 0;
  // A one-way note rides along with every echo call.
  bool oneway_notes = false;
  rmi::CallOptions call_options{};
  net::FaultSchedule faults;
  // A director quorum on nodes [0, directors), seeded with one placement
  // record, and a resolver on node `directors` probing it every 2 ms until
  // 5 ms after the last fault entry.
  int directors = 0;
};

// Where a storm runs.  shards == 0: one sim::Simulation.  Otherwise a
// ShardedSim of `shards` shards with node i on shard i * shards / nodes —
// so shards == nodes is the identity mapping and shards == sites puts each
// site on its own shard — or, with `affinity`, wherever
// net::affinity_mapping clusters the scenario's links.
struct Layout {
  std::size_t shards = 0;
  bool affinity = false;
};

// One shard per node.
inline Layout identity(const Scenario& s) {
  return Layout{static_cast<std::size_t>(s.nodes)};
}

struct Record {
  bool completed = false;  // every call answered and every entry applied
  int workers = 0;  // that ran: min(workers, shards); 1 on one Simulation
  std::int64_t calls = 0;
  double wall_sec = 0;
  double calls_per_sec = 0;
  std::int64_t windows = 0;  // ShardedSim only
  // Per node (index i is NodeId i+1): FNV fold of every execution's
  // (caller, seq, shard-local time) in execution order, notes included.
  std::vector<std::uint64_t> node_digests;
  // Per link (in links() order), per seq: executions of the echo call and
  // of its one-way note (empty unless the scenario sends notes).
  std::vector<std::vector<std::int32_t>> exec_counts;
  std::vector<std::vector<std::int32_t>> note_exec_counts;
  std::int64_t failed_calls = 0;
  std::int64_t order_violations = 0;  // executions behind their link's seq
  std::int64_t pending_fault_events = 0;
  std::int64_t resolutions = 0;  // resolver probes that found the record
  std::int64_t reply_cache_capacity_sum = 0;  // over nodes, at the end
  // Counter snapshot (see kCounters).
  std::int64_t messages_sent = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t messages_dropped_by_schedule = 0;
  std::int64_t faults_applied = 0;
  std::int64_t fifo_violations = 0;
  std::int64_t retransmissions = 0;
  std::int64_t duplicates_suppressed = 0;
  std::int64_t reply_cache_evictions = 0;
  std::int64_t evicted_reexecutions = 0;
  std::int64_t reply_cache_grows = 0;
  std::int64_t batches_sent = 0;
  std::int64_t batched_invokes = 0;
  std::int64_t batch_singletons = 0;
  std::int64_t oneway_calls = 0;
  std::int64_t oneway_executions = 0;
  std::int64_t directory_failovers = 0;
  std::int64_t failover_time_us = 0;  // summed failed-over call latency
  std::int64_t elections_held = 0;
  std::int64_t leader_changes = 0;
  std::int64_t election_time_us = 0;  // summed candidacy->majority
  std::int64_t directory_resolves = 0;

  [[nodiscard]] bool every_invoke_exactly_once() const {
    for (const auto& link : exec_counts) {
      for (const std::int32_t c : link) {
        if (c != 1) return false;
      }
    }
    return true;
  }

  // One-ways never retransmit, so a count of 2+ is a duplicate execution.
  // 0 is legal (lost to the schedule).
  [[nodiscard]] bool every_note_at_most_once() const {
    for (const auto& link : note_exec_counts) {
      for (const std::int32_t c : link) {
        if (c > 1) return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t d = kFnvBasis;
    for (const std::uint64_t node : node_digests) d = fold(d, node);
    return d;
  }
};

// The counter snapshot: each Record field and the registry key it sums
// across shards.
inline constexpr std::pair<const char*, std::int64_t Record::*> kCounters[] = {
    {"net.messages_sent", &Record::messages_sent},
    {"net.messages_dropped", &Record::messages_dropped},
    {"net.messages_dropped_by_schedule",
     &Record::messages_dropped_by_schedule},
    {"net.faults_applied", &Record::faults_applied},
    {"net.fifo_violations", &Record::fifo_violations},
    {"rmi.retransmissions", &Record::retransmissions},
    {"rmi.duplicates_suppressed", &Record::duplicates_suppressed},
    {"rmi.reply_cache_evictions", &Record::reply_cache_evictions},
    {"rmi.evicted_reexecutions", &Record::evicted_reexecutions},
    {"rmi.reply_cache_grows", &Record::reply_cache_grows},
    {"rmi.batches_sent", &Record::batches_sent},
    {"rmi.batched_invokes", &Record::batched_invokes},
    {"rmi.batch_singletons", &Record::batch_singletons},
    {"rmi.oneway_calls", &Record::oneway_calls},
    {"rmi.oneway_executions", &Record::oneway_executions},
    {"rmi.directory_failovers", &Record::directory_failovers},
    {"rmi.directory_failover_time_us", &Record::failover_time_us},
    {"rts.elections_held", &Record::elections_held},
    {"rts.leader_changes", &Record::leader_changes},
    {"rts.election_time_us", &Record::election_time_us},
    {"rts.dir_resolves", &Record::directory_resolves},
};

// One directed link of the topology, nodes 0-based.
struct Link {
  int src = 0;
  int dst = 0;
  int calls = 0;
};

// The scenario's links, source-major.
inline std::vector<Link> links(const Scenario& s) {
  if (s.nodes < 2 || s.sites < 1 || s.nodes % s.sites != 0) {
    throw common::MageError("storm: " + std::to_string(s.nodes) +
                            " nodes do not split into " +
                            std::to_string(s.sites) + " equal sites");
  }
  const int per_site = s.nodes / s.sites;
  std::vector<Link> out;
  for (int a = 0; a < s.nodes; ++a) {
    for (int b = 0; b < s.nodes; ++b) {
      if (a == b) continue;
      if (a / per_site == b / per_site) {
        out.push_back({a, b, s.calls_per_link});
      } else if (a % per_site < s.gateways && b % per_site < s.gateways &&
                 s.gateway_calls > 0) {
        out.push_back({a, b, s.gateway_calls});
      }
    }
  }
  return out;
}

namespace detail {

// What one node's services and completions write; only its shard does.
struct alignas(64) NodeState {
  struct Inbound {
    std::int64_t last_seq = -1;
    std::int32_t* executions = nullptr;  // this link's Record::exec_counts
    std::int32_t* notes = nullptr;
  };
  std::uint64_t digest = kFnvBasis;
  std::int64_t completed = 0;  // calls this node issued that finished
  std::int64_t failed = 0;
  std::int64_t order_violations = 0;
  std::vector<Inbound> from;  // per caller node, 0-based
};

// One windowed pipeline per directed link; each completion launches the
// link's next call.
struct Pipe {
  rmi::Transport* transport = nullptr;
  common::NodeId dst;
  std::int64_t calls = 0;
  std::int64_t next_seq = 0;
  NodeState* src = nullptr;
};

// The nodes, transports, services and pipes of one scenario on `net`.
// Services and callbacks hold its address and its elements' addresses.
class Mesh {
 public:
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  Mesh(net::Network& net, const Scenario& s, const std::vector<Link>& topo,
       Record& record)
      : options_(s.call_options), notes_(s.oneway_notes) {
    const auto n = static_cast<std::size_t>(s.nodes);
    for (std::size_t i = 0; i < n; ++i) {
      ids_.push_back(net.add_node("n" + std::to_string(i)));
    }
    const int per_site = s.nodes / s.sites;
    for (int a = 0; a < s.nodes; ++a) {
      for (int b = 0; b < s.nodes; ++b) {
        if (a / per_site != b / per_site) {
          net.set_extra_latency(ids_[a], ids_[b], s.site_hop_us);
        }
      }
    }
    net.refresh_pair_lookaheads();
    for (std::size_t i = 0; i < n; ++i) {
      transports_.push_back(std::make_unique<rmi::Transport>(
          net, ids_[i], s.reply_cache_capacity));
      if (s.flush_quantum_us > 0) {
        rmi::BatchOptions batch;
        batch.enabled = true;
        batch.flush_quantum_us = s.flush_quantum_us;
        transports_.back()->set_batching(batch);
      }
      if (s.adaptive_cache) {
        rmi::AdaptiveCacheOptions adaptive;
        adaptive.enabled = true;
        adaptive.floor = s.reply_cache_capacity;
        adaptive.ceiling = rmi::Transport::kReplyCacheCapacity;
        transports_.back()->set_adaptive_reply_cache(adaptive);
      }
    }

    // Request bodies depend only on seq, so every pipe shares one table
    // built before the timed region: a call bumps a refcount instead of
    // running a Writer.
    int max_calls = 0;
    for (const Link& l : topo) max_calls = std::max(max_calls, l.calls);
    for (int seq = 0; seq < max_calls; ++seq) {
      serial::Writer w(8);
      w.write_u64(static_cast<std::uint64_t>(seq));
      bodies_.push_back(w.take());
    }

    nodes_ = std::vector<NodeState>(n);
    for (NodeState& node : nodes_) node.from.resize(n);
    record.exec_counts.resize(topo.size());
    if (notes_) record.note_exec_counts.resize(topo.size());
    for (std::size_t k = 0; k < topo.size(); ++k) {
      const Link& l = topo[k];
      auto& in = nodes_[static_cast<std::size_t>(l.dst)]
                     .from[static_cast<std::size_t>(l.src)];
      record.exec_counts[k].assign(static_cast<std::size_t>(l.calls), 0);
      in.executions = record.exec_counts[k].data();
      if (notes_) {
        record.note_exec_counts[k].assign(static_cast<std::size_t>(l.calls),
                                          0);
        in.notes = record.note_exec_counts[k].data();
      }
      pipes_.push_back(Pipe{transports_[static_cast<std::size_t>(l.src)].get(),
                            ids_[static_cast<std::size_t>(l.dst)], l.calls, 0,
                            &nodes_[static_cast<std::size_t>(l.src)]});
    }

    // The echo service counts the execution (not the reply), checks the
    // link's order, folds (caller, seq, shard-local time) into the
    // receiver's digest and echoes the body back.  The note service folds
    // its executions into the same digest, so a duplicated or misordered
    // one-way breaks determinism too.
    echo_ = common::intern_verb("storm.echo");
    note_ = common::intern_verb("storm.note");
    for (std::size_t i = 0; i < n; ++i) {
      NodeState* self = &nodes_[i];
      sim::Simulation* clock = &net.node_sim(ids_[i]);
      transports_[i]->register_service(
          echo_, [self, clock](common::NodeId caller,
                               const serial::BufferChain& body,
                               rmi::Replier replier) {
            serial::Reader r(body);
            const std::uint64_t seq = r.read_u64();
            NodeState::Inbound& in = self->from[caller.value() - 1];
            ++in.executions[seq];
            if (static_cast<std::int64_t>(seq) <= in.last_seq) {
              ++self->order_violations;
            }
            in.last_seq = static_cast<std::int64_t>(seq);
            self->digest =
                fold(fold(fold(self->digest, caller.value()), seq),
                     static_cast<std::uint64_t>(clock->now()));
            replier.ok(body);
          });
      if (!notes_) continue;
      transports_[i]->register_service(
          note_, [self, clock](common::NodeId caller,
                               const serial::BufferChain& body,
                               rmi::Replier replier) {
            if (replier.armed()) {
              // Notes are only ever sent one-way; an armed Replier here
              // would mean the transport misrouted.
              replier.error("storm.note must arrive one-way");
              return;
            }
            serial::Reader r(body);
            const std::uint64_t seq = r.read_u64();
            ++self->from[caller.value() - 1].notes[seq];
            self->digest = fold(
                fold(fold(self->digest, caller.value() ^ 0xFFFFFFFFull), seq),
                static_cast<std::uint64_t>(clock->now()));
          });
    }
  }

  // The quorum and its resolver (Scenario::directors), on `net` after the
  // fault schedule is installed.
  void add_directors(net::Network& net, const Scenario& s) {
    if (s.directors == 0) return;
    if (s.directors >= s.nodes) {
      throw common::MageError("storm: the resolver needs a node after the " +
                              std::to_string(s.directors) + " directors");
    }
    const std::vector<common::NodeId> members(ids_.begin(),
                                              ids_.begin() + s.directors);
    const common::NodeId resolver_node = ids_[members.size()];
    for (std::size_t i = 0; i < members.size(); ++i) {
      directors_.push_back(
          std::make_unique<rts::Director>(*transports_[i], members));
    }
    for (auto& d : directors_) {
      d->seed(rts::proto::PlacementRecord{"storm.obj", "Echo", resolver_node,
                                          /*is_public=*/true, /*epoch=*/1});
    }
    for (auto& d : directors_) d->start();

    common::SimTime last_fault = 0;
    for (const net::FaultEvent& e : s.faults.events()) {
      last_fault = std::max(last_fault, e.at);
    }
    const common::SimTime until = last_fault + 5'000;
    resolver_ = std::make_unique<rts::DirectoryClient>(
        *transports_[members.size()], members);
    resolver_done_ = false;
    sim::Simulation& clock = net.node_sim(resolver_node);
    probe_ = [this, &clock, until] {
      resolver_->resolve(
          "storm.obj",
          [this, &clock,
           until](std::optional<rts::DirectoryClient::Resolution> r) {
            if (r.has_value()) ++resolutions_;
            if (clock.now() >= until) {
              resolver_done_ = true;
              return;
            }
            clock.schedule_after(2'000, probe_);
          });
    };
    clock.schedule_at(1'000, [this] { probe_(); });
  }

  void launch(Pipe& pipe) {
    if (pipe.next_seq >= pipe.calls) return;
    const serial::Buffer& body =
        bodies_[static_cast<std::size_t>(pipe.next_seq++)];
    if (notes_) pipe.transport->call_oneway(pipe.dst, note_, body);
    pipe.transport->call(
        pipe.dst, echo_, body,
        [this, &pipe](rmi::CallResult r) {
          if (!r.ok) ++pipe.src->failed;
          ++pipe.src->completed;
          launch(pipe);
        },
        options_);
  }

  [[nodiscard]] bool done(std::int64_t total) const {
    std::int64_t sum = 0;
    for (const NodeState& node : nodes_) sum += node.completed;
    return sum == total && resolver_done_;
  }

  std::vector<Pipe>& pipes() { return pipes_; }
  [[nodiscard]] const std::vector<NodeState>& nodes() const { return nodes_; }
  [[nodiscard]] std::int64_t resolutions() const { return resolutions_; }

  [[nodiscard]] std::int64_t reply_cache_capacity() const {
    std::int64_t sum = 0;
    for (const auto& t : transports_) {
      sum += static_cast<std::int64_t>(t->reply_cache_capacity());
    }
    return sum;
  }

 private:
  rmi::CallOptions options_;
  bool notes_;
  common::VerbId echo_{};
  common::VerbId note_{};
  std::vector<common::NodeId> ids_;
  std::vector<std::unique_ptr<rmi::Transport>> transports_;
  std::vector<serial::Buffer> bodies_;
  std::vector<NodeState> nodes_;
  std::vector<Pipe> pipes_;
  std::vector<std::unique_ptr<rts::Director>> directors_;
  std::unique_ptr<rts::DirectoryClient> resolver_;
  std::function<void()> probe_;
  bool resolver_done_ = true;
  std::int64_t resolutions_ = 0;
};

inline std::vector<std::size_t> node_to_shard(const Scenario& s,
                                              Layout layout,
                                              const std::vector<Link>& topo) {
  const auto n = static_cast<std::size_t>(s.nodes);
  if (layout.affinity) {
    // The communication graph the scenario implies: what a deployment
    // would learn from traffic counters, the storm simply knows.
    std::vector<net::AffinityEdge> edges;
    for (const Link& l : topo) {
      edges.push_back({static_cast<std::size_t>(l.src),
                       static_cast<std::size_t>(l.dst),
                       static_cast<double>(l.calls)});
    }
    return net::affinity_mapping(n, layout.shards, std::move(edges));
  }
  std::vector<std::size_t> mapping(n);
  for (std::size_t i = 0; i < n; ++i) mapping[i] = i * layout.shards / n;
  return mapping;
}

}  // namespace detail

// Generous virtual-time deadline: a liveness bug fails the run instead of
// hanging it.
inline constexpr common::SimTime kDeadlineUs = 60'000'000;

// Runs scenario `s` under `layout` on `workers` workers (ignored on one
// Simulation).  Wall time covers priming the pipes and the run.
inline Record run_storm(const Scenario& s, Layout layout, int workers) {
  const std::vector<Link> topo = links(s);
  std::unique_ptr<sim::Simulation> one;
  std::unique_ptr<sim::ShardedSim> sharded;
  std::unique_ptr<net::Network> net;
  if (layout.shards == 0) {
    one = std::make_unique<sim::Simulation>(s.seed);
    net = std::make_unique<net::Network>(*one, s.model);
  } else {
    sharded = std::make_unique<sim::ShardedSim>(
        layout.shards, s.seed, net::Network::min_link_latency(s.model));
    net = std::make_unique<net::Network>(
        *sharded, s.model, detail::node_to_shard(s, layout, topo));
  }

  Record record;
  detail::Mesh mesh(*net, s, topo, record);
  if (!s.faults.empty()) net->set_fault_schedule(s.faults);
  mesh.add_directors(*net, s);

  for (const Link& l : topo) record.calls += l.calls;
  const auto done = [&] {
    return mesh.done(record.calls) && net->pending_fault_events() == 0;
  };
  const auto start = std::chrono::steady_clock::now();
  for (detail::Pipe& pipe : mesh.pipes()) {
    for (int w = 0; w < s.window; ++w) mesh.launch(pipe);
  }
  record.completed = one ? one->run_until(done, kDeadlineUs)
                         : sharded->run_until(done, workers, kDeadlineUs);
  record.wall_sec = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  record.calls_per_sec = static_cast<double>(record.calls) / record.wall_sec;

  record.workers =
      one ? 1 : std::min(workers, static_cast<int>(layout.shards));
  record.windows = sharded ? sharded->windows() : 0;
  for (const auto& [key, field] : kCounters) {
    record.*field = one ? one->stats().counter(key) : sharded->counter(key);
  }
  for (const detail::NodeState& node : mesh.nodes()) {
    record.node_digests.push_back(node.digest);
    record.failed_calls += node.failed;
    record.order_violations += node.order_violations;
  }
  record.pending_fault_events =
      static_cast<std::int64_t>(net->pending_fault_events());
  record.resolutions = mesh.resolutions();
  record.reply_cache_capacity_sum = mesh.reply_cache_capacity();
  return record;
}

}  // namespace mage::storm
