#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "net/affinity.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/directory.hpp"
#include "rts/server.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace mage;
using Clock = std::chrono::steady_clock;

constexpr Workload kWorkloads[] = {
    {"storm", Kind::Storm},
    {"storm-batch", Kind::StormBatch},
    {"wan", Kind::Wan},
    {"mobile", Kind::Mobile},
};

// Engine counters every round snapshots (summed over shard registries).
constexpr const char* kCounters[] = {
    "net.messages_sent",
    "net.bytes_sent",
    "net.messages_dropped",
    "net.connections_opened",
    "rmi.calls",
    "rmi.failures",
    "rmi.cancelled_calls",
    "rmi.retransmissions",
    "rmi.duplicates_suppressed",
    "rmi.reply_cache_evictions",
    "rmi.evicted_reexecutions",
    "rmi.batches_sent",
    "rmi.batched_invokes",
    "rmi.reply_cache_capacity_highwater",
    "rts.async_invokes",
    "rts.async_redirects",
    "rts.async_relocates",
    "rts.stale_hints_rejected",
    "rts.migrations",
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fold(std::uint64_t digest, std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kPrime = 0x100000001B3ull;
  digest = (digest ^ a) * kPrime;
  return (digest ^ b) * kPrime;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One seeded stream per input family, decorrelated from the engine's own
// per-shard seeds.
common::Rng stream(std::uint64_t seed, std::uint64_t family) {
  return common::Rng(common::SplitMix64(seed ^ (family << 56)).next());
}

void snapshot(Round& round, const sim::ShardedSim& ssim) {
  for (const char* key : kCounters) round.counters[key] = ssim.counter(key);
  round.windows = ssim.windows();
  round.shards = static_cast<std::int64_t>(ssim.shard_count());
}

// Times each window into the active tracer: the interval between two
// boundary-hook calls is one window's wall time, barrier included.
void install_window_timer(sim::ShardedSim& ssim, Clock::time_point& last) {
  last = Clock::time_point{};
  ssim.set_boundary_hook(
      [&last](common::SimTime) {
        const auto now = Clock::now();
        if (last != Clock::time_point{} && g_tracer != nullptr) {
          g_tracer->record_window(
              std::chrono::duration_cast<std::chrono::nanoseconds>(now - last)
                  .count());
        }
        last = now;
      },
      &last);
}

// --- echo meshes: storm, storm-batch, wan ------------------------------------

struct MeshSpec {
  int nodes = 16;
  int sites = 1;         // 1: flat all-to-all mesh
  int site_calls = 0;    // nominal calls per site-local link
  int cross_calls = 0;   // nominal calls per leader <-> leader link
  int window = 8;        // calls in flight per link
  std::size_t reply_cache = 512;
  bool batch = false;    // per-link batching + adaptive reply cache
  bool wan = false;      // wan_site model, WAN hops, affinity mapping
};

// Rounds are sized to ~0.25 s at 1 worker on a 4-core machine, so that a
// run rests on dozens of rounds per worker count: on a shared machine a
// single round's wall time swings by up to 40%.
MeshSpec mesh_spec(Kind kind) {
  switch (kind) {
    case Kind::Storm:
      return {16, 1, 600, 0, 8, 512, false, false};
    case Kind::StormBatch:
      return {16, 1, 600, 0, 32, 512, true, false};
    default:
      return {64, 8, 270, 135, 8, 512, false, true};
  }
}

constexpr common::SimDuration kWanHopUs = 20'000;

// A fast LAN whose 550 us cross-node floor is the conservative lookahead;
// RMI CPU costs are zero so windows are packed with events.
net::CostModel storm_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 500;
  m.per_message_cpu_us = 50;
  m.bytes_per_usec = 1250.0;
  m.connection_setup_us = 500;
  m.local_invoke_us = 1;
  return m;
}

common::VerbId echo_verb() {
  static const common::VerbId verb = common::intern_verb("e2e.echo");
  return verb;
}

// Receiver-side state of one node; touched only from its shard.
struct alignas(64) Receiver {
  std::vector<std::int64_t> next_seq;  // per caller: FIFO + exactly-once
  std::uint64_t digest = kFnvBasis;
  std::int64_t order_violations = 0;
};

// Sender-side state of one node; touched only from its shard.
struct alignas(64) Sender {
  std::int64_t done = 0;  // completed + failed calls
  LatencyHistogram latency;
};

struct EchoLink {
  rmi::Transport* transport = nullptr;
  sim::Simulation* sim = nullptr;
  Sender* sender = nullptr;
  common::NodeId dst;
  std::uint32_t src = 0;
  std::int64_t calls = 0;
  std::int64_t next_seq = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;  // reply body did not echo the request
};

void launch(EchoLink& link);

void complete(EchoLink& link, std::int64_t seq, common::SimTime issued,
              rmi::CallResult result) {
  TraceScope span(Span::Complete, link.src, static_cast<std::uint64_t>(seq));
  if (result.ok) {
    serial::ChainReader reader(result.body);
    if (reader.read_u64() != static_cast<std::uint64_t>(seq)) {
      ++link.mismatched;
    }
    link.sender->latency.record(link.sim->now() - issued);
    ++link.completed;
  } else {
    ++link.failed;
  }
  ++link.sender->done;
  launch(link);
}

void launch(EchoLink& link) {
  if (link.next_seq >= link.calls) return;
  const std::int64_t seq = link.next_seq++;
  serial::Writer body(8);
  body.write_u64(static_cast<std::uint64_t>(seq));
  const common::SimTime issued = link.sim->now();
  TraceScope span(Span::Issue, link.src, static_cast<std::uint64_t>(seq));
  link.transport->call(link.dst, echo_verb(), body.take(),
                       [&link, seq, issued](rmi::CallResult result) {
                         complete(link, seq, issued, std::move(result));
                       });
}

struct LinkPlan {
  int src = 0;
  int dst = 0;
  std::int64_t calls = 0;
};

// Site-local all-to-all links, plus leader <-> leader links across sites.
std::vector<LinkPlan> plan_links(const MeshSpec& spec, common::Rng& rng) {
  std::vector<LinkPlan> plan;
  const int per_site = spec.nodes / spec.sites;
  const auto jittered = [&rng](int nominal) {
    // Seeded +-10% per link.
    const std::int64_t spread = nominal / 10;
    return nominal + rng.next_range(-spread, spread);
  };
  for (int a = 0; a < spec.nodes; ++a) {
    for (int b = 0; b < spec.nodes; ++b) {
      if (a == b) continue;
      if (a / per_site == b / per_site) {
        plan.push_back({a, b, jittered(spec.site_calls)});
      } else if (a % per_site == 0 && b % per_site == 0) {
        plan.push_back({a, b, jittered(spec.cross_calls)});
      }
    }
  }
  return plan;
}

Round run_mesh(Kind kind, std::uint64_t seed, int workers,
               bool trace_windows) {
  const MeshSpec spec = mesh_spec(kind);
  Round round;
  const auto build_start = Clock::now();

  common::Rng rng = stream(seed, 1);
  const std::vector<LinkPlan> plan = plan_links(spec, rng);
  const net::CostModel model =
      spec.wan ? net::CostModel::wan_site() : storm_model();
  const auto nodes = static_cast<std::size_t>(spec.nodes);
  std::vector<std::size_t> mapping;
  if (spec.wan) {
    std::vector<net::AffinityEdge> edges;
    for (const LinkPlan& l : plan) {
      edges.push_back({static_cast<std::size_t>(l.src),
                       static_cast<std::size_t>(l.dst),
                       static_cast<double>(l.calls)});
    }
    mapping = net::affinity_mapping(
        nodes, static_cast<std::size_t>(spec.sites), std::move(edges));
  }
  sim::ShardedSim ssim(spec.wan ? static_cast<std::size_t>(spec.sites) : nodes,
                       seed, net::Network::min_link_latency(model));
  net::Network net(ssim, model, std::move(mapping));

  std::vector<common::NodeId> ids;
  for (int i = 0; i < spec.nodes; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  if (spec.wan) {
    const int per_site = spec.nodes / spec.sites;
    for (int a = 0; a < spec.nodes; ++a) {
      for (int b = 0; b < spec.nodes; ++b) {
        if (a / per_site != b / per_site) {
          net.set_extra_latency(ids[a], ids[b], kWanHopUs);
        }
      }
    }
  }

  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<Receiver> receivers(nodes);
  std::vector<Sender> senders(nodes);
  for (int i = 0; i < spec.nodes; ++i) {
    transports.push_back(
        std::make_unique<rmi::Transport>(net, ids[i], spec.reply_cache));
    if (spec.batch) {
      rmi::BatchOptions batch;
      batch.enabled = true;
      batch.flush_quantum_us = net::Network::min_link_latency(model);
      transports.back()->set_batching(batch);
      rmi::AdaptiveCacheOptions adaptive;
      adaptive.enabled = true;
      adaptive.floor = spec.reply_cache;
      adaptive.ceiling = rmi::Transport::kReplyCacheCapacity;
      transports.back()->set_adaptive_reply_cache(adaptive);
    }
    Receiver* rx = &receivers[static_cast<std::size_t>(i)];
    rx->next_seq.assign(nodes + 1, 0);
    transports.back()->register_service(
        echo_verb(), [rx](common::NodeId caller, const serial::BufferChain& body,
                          rmi::Replier replier) {
          TraceScope span(Span::Service, caller.value(), 0);
          serial::ChainReader reader(body);
          const auto seq = static_cast<std::int64_t>(reader.read_u64());
          span.set_request(caller.value(), static_cast<std::uint64_t>(seq));
          std::int64_t& next = rx->next_seq[caller.value()];
          if (seq != next) ++rx->order_violations;
          next = seq + 1;
          rx->digest = fold(rx->digest, caller.value(),
                            static_cast<std::uint64_t>(seq));
          TraceScope reply(Span::Reply, caller.value(),
                           static_cast<std::uint64_t>(seq));
          replier.ok(body);
        });
  }
  if (spec.wan) net.refresh_pair_lookaheads();

  std::vector<EchoLink> links(plan.size());
  std::int64_t cross_calls = 0;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const LinkPlan& p = plan[k];
    EchoLink& link = links[k];
    link.transport = transports[static_cast<std::size_t>(p.src)].get();
    link.sim = &net.node_sim(ids[p.src]);
    link.sender = &senders[static_cast<std::size_t>(p.src)];
    link.dst = ids[p.dst];
    link.src = ids[p.src].value();
    link.calls = p.calls;
    round.ops += p.calls;
    if (net.shard_of(ids[p.src]) != net.shard_of(ids[p.dst])) {
      cross_calls += p.calls;
    }
  }
  round.cross_shard_share =
      static_cast<double>(cross_calls) / static_cast<double>(round.ops);

  // Seeded priming order: which link's window enters the queues first.
  std::vector<std::size_t> order(links.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::shuffle(order.begin(), order.end(), rng);

  Clock::time_point last_window{};
  if (trace_windows) install_window_timer(ssim, last_window);
  round.setup_s = seconds_since(build_start);

  const std::int64_t copies_before =
      static_cast<std::int64_t>(serial::Buffer::deep_copy_bytes());
  const auto run_start = Clock::now();
  for (const std::size_t k : order) {
    for (int w = 0; w < spec.window; ++w) launch(links[k]);
  }
  const std::int64_t total = round.ops;
  bool drained = false;
  {
    TraceScope span(Span::RunUntil, 0, 0);
    drained = ssim.run_until(
        [&senders, total] {
          std::int64_t done = 0;
          for (const Sender& s : senders) done += s.done;
          return done == total;
        },
        workers);
  }
  round.run_s = seconds_since(run_start);
  round.deep_copy_bytes =
      static_cast<std::int64_t>(serial::Buffer::deep_copy_bytes()) -
      copies_before;
  if (trace_windows) ssim.set_boundary_hook(nullptr);

  snapshot(round, ssim);
  for (const Sender& s : senders) round.latency.merge(s.latency);
  for (const Receiver& r : receivers) round.digests.push_back(r.digest);

  if (!drained) round.errors.push_back("engine drained before every call completed");
  std::int64_t violations = 0;
  for (const Receiver& r : receivers) violations += r.order_violations;
  if (violations != 0) {
    round.errors.push_back(std::to_string(violations) +
                           " per-link FIFO violations at the services");
  }
  for (const EchoLink& link : links) {
    round.failed += link.failed;
    const std::int64_t executed =
        receivers[link.dst.value() - 1].next_seq[link.src];
    if (executed != link.calls || link.completed != link.calls ||
        link.mismatched != 0) {
      round.errors.push_back(
          "link " + std::to_string(link.src) + "->" +
          std::to_string(link.dst.value()) + ": " + std::to_string(executed) +
          " executed, " + std::to_string(link.completed) + " completed, " +
          std::to_string(link.mismatched) + " bad replies of " +
          std::to_string(link.calls) + " calls");
      break;
    }
  }
  return round;
}

// --- mobile: sessions relocating under invoke load ---------------------------

constexpr int kMobileNodes = 16;
constexpr int kSessions = 64;
constexpr std::int64_t kInvokesPerNode = 2'500;
constexpr int kInFlight = 16;
constexpr std::size_t kSmallArg = 64;
constexpr std::size_t kLargeArg = 16 * 1024;
constexpr double kLargeArgShare = 0.10;
constexpr std::size_t kStateBytes = 4096;
constexpr common::SimDuration kWorkCostUs = 20;
constexpr common::SimDuration kMovePeriodUs = 2'000;
// No move starts within this margin of a fault: a transfer lost to a burst
// pins its session in transit for the 150 ms retransmission period, longer
// than the client's bounded chase, and would fail invokes by design.
constexpr common::SimDuration kFaultMarginUs = 5'000;

// At-most-once needs every reply-cache entry to outlive the retransmission
// chain of its request.  Sessions start on two nodes, which then take about
// half of all requests each (~250k per simulated second): the default
// 8192-entry ring turns over in ~30 ms there, and with the default 150 ms
// retransmission period a request retried after a loss burst missed its
// evicted entry and ran again (136 re-executions in a seed-1 round).  So
// the clients retransmit at LAN pace and the rings hold ~120 ms of load.
constexpr common::SimDuration kAttemptTimeoutUs = 20'000;
constexpr std::size_t kReplyCacheEntries = 32'768;

// A LAN with a 220 us cross-node floor and compiled marshalling.
net::CostModel mobile_model() {
  net::CostModel m = net::CostModel::modern_lan();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  return m;
}

class Session : public rts::MageObject {
 public:
  Session() = default;
  explicit Session(serial::Buffer state) : state_(std::move(state)) {}

  [[nodiscard]] std::string class_name() const override { return "Session"; }
  void serialize(serial::Writer& w) const override {
    w.write_u64(served);
    w.write_u64(digest);
    w.write_bytes(state_.span());
  }
  void deserialize(serial::Reader& r) override {
    served = r.read_u64();
    digest = r.read_u64();
    state_ = r.read_bytes();
  }

  std::uint64_t served = 0;
  std::uint64_t digest = kFnvBasis;

 private:
  serial::Buffer state_;
};

std::uint64_t invoke_id(std::uint32_t node, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(node) << 32) | seq;
}

struct MobileShared {
  std::vector<std::string> names;  // session names
  // Executions per invoke, indexed [(node - 1) * kInvokesPerNode + seq].
  std::unique_ptr<std::atomic<std::uint8_t>[]> marks;
};

struct alignas(64) Generator {
  rts::AsyncClient* client = nullptr;
  sim::Simulation* sim = nullptr;
  const MobileShared* shared = nullptr;
  std::uint32_t node = 0;
  common::Rng rng{0};
  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  std::uint64_t digest = kFnvBasis;
  std::string first_error;
  std::vector<std::uint8_t> done;  // per seq: reply received
  LatencyHistogram latency;
};

void issue(Generator& g) {
  if (g.issued >= kInvokesPerNode) return;
  const auto seq = static_cast<std::uint32_t>(g.issued++);
  const auto session = g.rng.next_below(kSessions);
  const std::size_t size =
      g.rng.next_double() < kLargeArgShare ? kLargeArg : kSmallArg;
  serial::Writer args(size);
  args.write_u32(g.node);
  args.write_u32(seq);
  args.write_fill(static_cast<std::uint8_t>(seq), size - 8);
  const common::SimTime issued_at = g.sim->now();
  auto future = [&] {
    TraceScope span(Span::Issue, g.node, seq);
    return g.client->invoke_raw(g.shared->names[session], "work", args.take());
  }();
  future
      .then([&g, seq, issued_at](serial::Buffer& result) {
        TraceScope span(Span::Complete, g.node, seq);
        serial::Reader reader(result);
        if (reader.read_u64() != invoke_id(g.node, seq)) ++g.mismatched;
        g.latency.record(g.sim->now() - issued_at);
        g.digest = fold(g.digest, seq, 0);
        g.done[seq] = 1;
        ++g.completed;
        issue(g);
      })
      .on_error([&g](const std::string& error) {
        if (g.first_error.empty()) g.first_error = error;
        ++g.failed;
        issue(g);
      });
}

struct Mover {
  rts::AsyncClient* client = nullptr;
  sim::Simulation* sim = nullptr;
  const MobileShared* shared = nullptr;
  const std::vector<common::NodeId>* ids = nullptr;
  common::Rng rng{0};
  std::vector<std::pair<common::SimTime, common::SimTime>> faults;
  std::vector<std::int64_t> latencies;
  std::int64_t failed = 0;
};

void move_tick(Mover& m) {
  const common::SimTime now = m.sim->now();
  const bool near_fault =
      std::any_of(m.faults.begin(), m.faults.end(), [now](const auto& f) {
        return now + kFaultMarginUs >= f.first &&
               now <= f.second + kFaultMarginUs;
      });
  if (!near_fault) {
    const auto session = m.rng.next_below(kSessions);
    const auto to = (*m.ids)[m.rng.next_below(kMobileNodes)];
    m.client->move(m.shared->names[session], to)
        .then([&m, now](common::NodeId&) {
          m.latencies.push_back(m.sim->now() - now);
        })
        .on_error([&m](const std::string&) { ++m.failed; });
  }
  m.sim->schedule_after(kMovePeriodUs, [&m] { move_tick(m); },
                        sim::Wake::No);
}

// Three 4 ms loss bursts and one 8 ms partition/heal, no crashes, inside
// the first 80 simulated ms (a round runs ~125 ms).  The seed picks which
// slot holds the partition, each fault's start inside its slot and the
// partitioned pair; lengths and rates are fixed and the slots never
// overlap, so every seed loses the same share of time to faults and to
// the mover's pauses around them.
net::FaultSchedule mobile_faults(
    std::uint64_t seed, const std::vector<common::NodeId>& ids,
    std::vector<std::pair<common::SimTime, common::SimTime>>& windows) {
  constexpr common::SimTime kFirstSlot = 10'000;
  constexpr common::SimDuration kSlot = 17'500;
  constexpr common::SimDuration kJitter = 5'000;
  constexpr common::SimDuration kBurst = 4'000;
  constexpr common::SimDuration kPartition = 8'000;
  constexpr double kBurstLoss = 0.05;
  common::Rng rng = stream(seed, 3);
  net::FaultSchedule schedule;
  const auto partition_slot = rng.next_below(4);
  for (std::uint64_t slot = 0; slot < 4; ++slot) {
    const common::SimTime at = kFirstSlot +
                               static_cast<common::SimTime>(slot) * kSlot +
                               rng.next_range(0, kJitter);
    common::SimDuration length = kBurst;
    if (slot == partition_slot) {
      const auto a = rng.next_below(kMobileNodes);
      const auto b = (a + 1 + rng.next_below(kMobileNodes - 1)) % kMobileNodes;
      length = kPartition;
      schedule.partition_for(at, ids[a], ids[b], length);
    } else {
      schedule.loss_burst(at, kBurstLoss, length);
    }
    windows.emplace_back(at, at + length);
  }
  return schedule;
}

Round run_mobile(std::uint64_t seed, int workers) {
  Round round;
  const auto build_start = Clock::now();

  const net::CostModel model = mobile_model();
  sim::ShardedSim ssim(kMobileNodes, seed,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  std::vector<common::NodeId> ids;
  for (int i = 0; i < kMobileNodes; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }

  MobileShared shared;
  for (int s = 0; s < kSessions; ++s) {
    shared.names.push_back("session" + std::to_string(s));
  }
  const std::size_t mark_count =
      static_cast<std::size_t>(kMobileNodes * kInvokesPerNode);
  shared.marks = std::make_unique<std::atomic<std::uint8_t>[]>(mark_count);

  rts::ClassWorld world;
  world.register_class<Session>("Session").methods["work"] = rts::MethodEntry{
      [&shared](rts::MageObject& object, const serial::Buffer& args) {
        serial::Reader reader(args);
        const std::uint32_t node = reader.read_u32();
        const std::uint32_t seq = reader.read_u32();
        TraceScope span(Span::Service, node, seq);
        auto& session = static_cast<Session&>(object);
        ++session.served;
        session.digest = fold(session.digest, node, seq);
        shared.marks[(node - 1) * kInvokesPerNode + seq].fetch_add(
            1, std::memory_order_relaxed);
        serial::Writer result(8);
        result.write_u64(invoke_id(node, seq));
        return result.take();
      },
      kWorkCostUs};
  rts::Directory directory;

  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<rts::MageServer>> servers;
  std::vector<std::unique_ptr<rts::AsyncClient>> clients;
  for (int i = 0; i < kMobileNodes; ++i) {
    transports.push_back(
        std::make_unique<rmi::Transport>(net, ids[i], kReplyCacheEntries));
    servers.push_back(
        std::make_unique<rts::MageServer>(*transports[i], world, directory));
    servers.back()->class_cache().install("Session");
    rmi::CallPolicy policy;
    policy.attempt_timeout_us = kAttemptTimeoutUs;
    policy.attempt_transmissions = 64;
    clients.push_back(
        std::make_unique<rts::AsyncClient>(*servers.back(), policy));
  }

  // Every session starts on node 0 or 1 with 4 KB of seeded state.
  common::Rng state_rng = stream(seed, 4);
  for (int s = 0; s < kSessions; ++s) {
    rts::ComponentInfo info;
    info.name = shared.names[static_cast<std::size_t>(s)];
    info.class_name = "Session";
    info.home = ids[static_cast<std::size_t>(s % 2)];
    info.is_public = true;
    directory.announce(info);
    serial::Writer state(kStateBytes);
    for (std::size_t k = 0; k < kStateBytes / 8; ++k) {
      state.write_u64(state_rng.next());
    }
    servers[static_cast<std::size_t>(s % 2)]->registry().bind(
        info.name, std::make_unique<Session>(state.take()));
  }

  std::vector<Generator> gens(kMobileNodes);
  for (int i = 0; i < kMobileNodes; ++i) {
    Generator& g = gens[static_cast<std::size_t>(i)];
    g.client = clients[static_cast<std::size_t>(i)].get();
    g.sim = &net.node_sim(ids[i]);
    g.shared = &shared;
    g.node = ids[i].value();
    g.rng = stream(seed, 16 + static_cast<std::uint64_t>(i));
    g.done.assign(static_cast<std::size_t>(kInvokesPerNode), 0);
  }

  Mover mover;
  mover.client = clients[0].get();
  mover.sim = &net.node_sim(ids[0]);
  mover.shared = &shared;
  mover.ids = &ids;
  mover.rng = stream(seed, 5);
  net.set_fault_schedule(mobile_faults(seed, ids, mover.faults));
  mover.sim->schedule_at(kMovePeriodUs, [&mover] { move_tick(mover); },
                         sim::Wake::No);

  round.ops = kMobileNodes * kInvokesPerNode;
  round.cross_shard_share = 1.0;
  round.setup_s = seconds_since(build_start);

  const std::int64_t copies_before =
      static_cast<std::int64_t>(serial::Buffer::deep_copy_bytes());
  const auto run_start = Clock::now();
  for (Generator& g : gens) {
    for (int w = 0; w < kInFlight; ++w) issue(g);
  }
  const std::int64_t total = round.ops;
  bool finished = false;
  {
    TraceScope span(Span::RunUntil, 0, 0);
    finished = ssim.run_until(
        [&gens, total] {
          std::int64_t done = 0;
          for (const Generator& g : gens) done += g.completed + g.failed;
          return done == total;
        },
        workers);
  }
  round.run_s = seconds_since(run_start);
  round.deep_copy_bytes =
      static_cast<std::int64_t>(serial::Buffer::deep_copy_bytes()) -
      copies_before;

  snapshot(round, ssim);
  round.move_latency_us = mover.latencies;
  std::int64_t completed = 0;
  for (const Generator& g : gens) {
    round.latency.merge(g.latency);
    round.digests.push_back(g.digest);
    round.failed += g.failed;
    completed += g.completed;
    if (g.mismatched != 0) {
      round.errors.push_back("node " + std::to_string(g.node) + ": " +
                             std::to_string(g.mismatched) +
                             " replies answered a different invoke");
    }
    if (!g.first_error.empty()) {
      std::fprintf(stderr, "mobile: node %u: %lld invokes failed, first: %s\n",
                   g.node, static_cast<long long>(g.failed),
                   g.first_error.c_str());
    }
  }
  if (!finished) round.errors.push_back("engine drained before every invoke completed");

  // Exactly once: every completed invoke ran once, none ran twice.
  std::int64_t bad_marks = 0;
  for (const Generator& g : gens) {
    for (std::int64_t seq = 0; seq < kInvokesPerNode; ++seq) {
      const std::uint8_t runs =
          shared.marks[(g.node - 1) * kInvokesPerNode + seq].load(
              std::memory_order_relaxed);
      if (runs > 1 || (g.done[static_cast<std::size_t>(seq)] && runs != 1)) {
        ++bad_marks;
      }
    }
  }
  if (bad_marks != 0) {
    round.errors.push_back(std::to_string(bad_marks) +
                           " invokes did not execute exactly once");
  }

  // Every session is still bound somewhere (the source keeps its copy
  // until a transfer is acknowledged; both copies then hold one state).
  std::uint64_t served = 0;
  for (const std::string& name : shared.names) {
    const auto host = std::find_if(
        servers.begin(), servers.end(),
        [&name](const auto& s) { return s->registry().has_local(name); });
    if (host == servers.end()) {
      round.errors.push_back("session " + name + " is bound nowhere");
      continue;
    }
    const auto& session =
        static_cast<const Session&>((*host)->registry().local(name));
    served += session.served;
    round.digests.push_back(session.digest);
  }
  if (round.errors.empty() && served != static_cast<std::uint64_t>(completed)) {
    round.errors.push_back("sessions served " + std::to_string(served) +
                           " invokes but " + std::to_string(completed) +
                           " completed");
  }
  return round;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

Round run_round(const Workload& workload, std::uint64_t seed, int workers,
                bool trace_windows) {
  if (workload.kind == Kind::Mobile) return run_mobile(seed, workers);
  return run_mesh(workload.kind, seed, workers, trace_windows);
}

MessageMix message_mix(const Workload& workload) {
  MessageMix mix;
  if (workload.kind == Kind::Mobile) {
    mix.shards = kMobileNodes;
    mix.queue_depth = 2 * kInFlight;
    mix.mobile = true;
    mix.large_arg_share = kLargeArgShare;
    mix.small_arg_bytes = kSmallArg;
    mix.large_arg_bytes = kLargeArg;
    mix.state_bytes = kStateBytes;
    return mix;
  }
  const MeshSpec spec = mesh_spec(workload.kind);
  const int per_site = spec.nodes / spec.sites;
  mix.shards = static_cast<std::size_t>(spec.wan ? spec.sites : spec.nodes);
  // Calls in flight that touch one shard, each pending as a request or a
  // reply: the event-queue depth the shard runs at.
  const int peers = spec.wan ? per_site * (per_site - 1) : spec.nodes - 1;
  mix.queue_depth = static_cast<std::size_t>(2 * peers * spec.window);
  mix.batched = spec.batch;
  return mix;
}

}  // namespace e2e
