// Sharded-simulation contract tests.
//
// The two load-bearing properties of sim::ShardedSim:
//
//   1. determinism — one seed fully determines each node's event order at
//      ANY worker-thread count (the conservative windows are a pure
//      function of event timestamps; mailbox drains happen in fixed source
//      order at barriers);
//   2. the threading contract is enforced, not advisory — configuration
//      mutations while workers run, blocking calls and tracing on a
//      network with more than one shard, and zero-lookahead construction
//      all throw.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/affinity.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "support/chaos_harness.hpp"

namespace mage {
namespace {

net::CostModel lan_model() {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  m.connection_setup_us = 100;
  m.local_invoke_us = 1;
  return m;
}

// One delivery observed by a node: (caller, seq, shard-local sim time).
using Observation = std::tuple<std::uint32_t, std::uint64_t, common::SimTime>;

struct MeshRun {
  std::vector<std::vector<Observation>> observed;  // per node id
  sim::ShardedSim::RunProfile profile;
};

// Runs a small echo mesh on the sharded engine, one shard per node, and
// returns each node's full observation log (order + timestamps) and the
// run profile.  Every node calls the first `targets` nodes (every other
// node when `targets` is 0).
MeshRun run_echo_mesh(int nodes, int calls_per_link, int threads,
                      std::uint64_t seed, int targets = 0) {
  const net::CostModel model = lan_model();
  sim::ShardedSim ssim(static_cast<std::size_t>(nodes), seed,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model);

  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (int i = 0; i < nodes; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  for (int i = 0; i < nodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
  }

  std::vector<std::vector<Observation>> observed(
      static_cast<std::size_t>(nodes) + 1);
  const common::VerbId echo = common::intern_verb("sharded.echo");
  for (int i = 0; i < nodes; ++i) {
    auto* log = &observed[ids[i].value()];
    auto& sim = net.node_sim(ids[i]);
    transports[i]->register_service(
        echo, [log, &sim](common::NodeId caller,
                          const serial::BufferChain& body,
                          rmi::Replier replier) {
          serial::ChainReader r(body);
          log->emplace_back(caller.value(), r.read_u64(), sim.now());
          replier.ok(body);
        });
  }

  struct Pipe {
    rmi::Transport* transport;
    common::NodeId dst;
    std::int64_t next = 0;
    std::int64_t* completed = nullptr;
  };
  std::vector<std::int64_t> completed(static_cast<std::size_t>(nodes) + 1, 0);
  std::vector<Pipe> pipes;
  const int destinations = targets == 0 ? nodes : targets;
  for (int i = 0; i < nodes; ++i) {
    for (int j = 0; j < destinations; ++j) {
      if (i != j) {
        pipes.push_back(
            Pipe{transports[i].get(), ids[j], 0, &completed[ids[i].value()]});
      }
    }
  }
  std::function<void(Pipe&)> next_call = [&](Pipe& p) {
    if (p.next >= calls_per_link) return;
    serial::Writer w(8);
    w.write_u64(static_cast<std::uint64_t>(p.next++));
    p.transport->call(p.dst, echo, w.take(), [&next_call, &p](rmi::CallResult r) {
      // Thrown on a worker thread; ShardedSim::run_until rethrows it on
      // the driver (gtest assertions are not thread-safe off-thread).
      if (!r.ok) throw common::MageError("echo failed: " + r.error);
      ++*p.completed;
      next_call(p);
    });
  };
  for (auto& p : pipes) {
    next_call(p);
    next_call(p);  // window of 2 outstanding per link
  }

  const std::int64_t total =
      static_cast<std::int64_t>(pipes.size()) * calls_per_link;
  const bool done = ssim.run_until(
      [&] {
        std::int64_t sum = 0;
        for (auto c : completed) sum += c;
        return sum == total;
      },
      threads);
  EXPECT_TRUE(done);
  return MeshRun{std::move(observed), ssim.last_run()};
}

std::vector<std::vector<Observation>> run_mesh(int nodes, int calls_per_link,
                                               int threads,
                                               std::uint64_t seed) {
  return run_echo_mesh(nodes, calls_per_link, threads, seed).observed;
}

TEST(ShardedSim, SameSeedSameOrderAtAnyThreadCount) {
  const auto one = run_mesh(4, 30, 1, 99);
  const auto two = run_mesh(4, 30, 2, 99);
  const auto four = run_mesh(4, 30, 4, 99);
  ASSERT_EQ(one.size(), two.size());
  // Identical per-node event order AND identical shard-local timestamps:
  // the parallel execution replays the sequential one exactly.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  // And the logs are non-trivial: every node saw every peer's full stream.
  for (std::size_t node = 1; node < one.size(); ++node) {
    EXPECT_EQ(one[node].size(), 3u * 30u);
  }
}

TEST(ShardedSim, NodeStreamsDifferAcrossSeedsAndNodes) {
  // Every random draw is node-owned: a node's stream is a function of the
  // engine seed and its id only, so it is the same over one Simulation and
  // over a ShardedSim, and differs across engine seeds and across nodes.
  sim::Simulation one(1);
  sim::ShardedSim seed_one(2, 1, 100);
  sim::ShardedSim seed_two(2, 2, 100);
  net::Network on_one(one, lan_model());
  net::Network on_seed_one(seed_one, lan_model());
  net::Network on_seed_two(seed_two, lan_model());
  const auto first_draws = [](net::Network& network) {
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 2; ++i) {
      draws.push_back(network.node_rng(network.add_node("n")).next());
    }
    return draws;
  };
  const auto seed_one_draws = first_draws(on_seed_one);
  EXPECT_EQ(first_draws(on_one), seed_one_draws);
  EXPECT_NE(seed_one_draws[0], seed_one_draws[1]);
  const auto seed_two_draws = first_draws(on_seed_two);
  EXPECT_NE(seed_one_draws[0], seed_two_draws[0]);
  EXPECT_NE(seed_one_draws[1], seed_two_draws[1]);
}

TEST(ShardedSim, ZeroLookaheadRejected) {
  EXPECT_THROW(sim::ShardedSim(4, 7, 0), common::MageError);
}

TEST(ShardedSim, CostModelMustCoverLookahead) {
  sim::ShardedSim ssim(2, 7, 10'000);  // lookahead larger than any delay
  EXPECT_THROW(net::Network(ssim, net::CostModel::zero()),
               common::MageError);
}

TEST(ShardedSim, PostedEventsRunInTimeOrder) {
  sim::ShardedSim ssim(2, 7, 50);
  std::vector<int> order;
  // Driver-side posts before the run: both land in shard 1's mailbox and
  // must fire in time order regardless of post order.
  ssim.post(0, 1, 200, [&order] { order.push_back(2); });
  ssim.post(0, 1, 100, [&order] { order.push_back(1); });
  ssim.run_until_idle(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(ssim.shard(1).now(), 200);
}

// run_until checks its predicate at every barrier, so a run stops at the
// first barrier after the event that satisfied it — here a cross-shard
// delivery, posted through a mailbox, whose raw handler flips the flag —
// while a later event is still queued.
TEST(ShardedSim, RunUntilStopsAtTheBarrierAfterAPostedEvent) {
  const net::CostModel model = lan_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  const auto a = net.add_node("a");  // shard 0
  const auto b = net.add_node("b");  // shard 1
  common::SimTime delivered_at = -1;
  net.set_handler(a, [](net::Message) {});
  net.set_handler(b, [&net, &delivered_at, b](net::Message) {
    delivered_at = net.node_sim(b).now();
  });
  bool later_ran = false;
  net.node_sim(a).schedule_at(1'000'000, [&later_ran] { later_ran = true; });
  net::Message probe;
  probe.from = a;
  probe.to = b;
  probe.verb = common::intern_verb("probe");
  net.send(std::move(probe));

  EXPECT_TRUE(ssim.run_until([&delivered_at] { return delivered_at >= 0; },
                             2));
  EXPECT_EQ(ssim.windows(), 1);
  EXPECT_EQ(ssim.frontier(), delivered_at);
  EXPECT_FALSE(later_ran);
}

TEST(ShardedSim, ConfigFrozenWhileWorkersRun) {
  const net::CostModel model = lan_model();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  net.add_node("a");
  net.add_node("b");
  // An event on a worker thread mutating global network config must throw;
  // the error surfaces through run_until on the driver.
  ssim.shard(0).schedule_after(10, [&net] { net.set_loss_rate(0.5); });
  EXPECT_THROW(ssim.run_until_idle(2), common::MageError);
  // Stopped again: configuration reopens.
  EXPECT_NO_THROW(net.set_loss_rate(0.0));
}

// Expects `action` to throw a MageError whose text contains `reason`.
template <typename Action>
void expect_refused(Action&& action, const std::string& reason) {
  try {
    action();
    ADD_FAILURE() << "expected a MageError naming \"" << reason << "\"";
  } catch (const common::MageError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

// Tracing needs one shard, not one engine: a 1-shard ShardedSim traces,
// and a 2-shard one refuses, since its workers would interleave the trace.
TEST(ShardedSim, TracingNeedsOneShard) {
  const net::CostModel model = lan_model();
  {
    sim::ShardedSim ssim(1, 7, net::Network::min_link_latency(model));
    net::Network net(ssim, model, {0, 0});
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    net.set_handler(b, [](net::Message) {});
    net.set_tracing(true);
    net.send(net::Message{a, b, common::intern_verb("traced"),
                          net::MsgKind::Request, {}, {}});
    ssim.run_until_idle(2);
    ASSERT_EQ(net.trace().size(), 1u);
    EXPECT_EQ(net.trace()[0].verb, "traced");
  }
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  expect_refused([&net] { net.set_tracing(true); }, "more than one shard");
}

// Blocking needs one shard too: call_sync runs the shard's loop inline on
// a 1-shard ShardedSim, and refuses on 2 shards, where the reply may need
// a shard the blocked thread never runs.
TEST(ShardedSim, CallSyncNeedsOneShard) {
  const net::CostModel model = lan_model();
  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    sim::ShardedSim ssim(shards, 7, net::Network::min_link_latency(model));
    net::Network net(ssim, model, {0, shards - 1});  // a, b on every shard
    const auto a = net.add_node("a");
    const auto b = net.add_node("b");
    rmi::Transport ta(net, a);
    rmi::Transport tb(net, b);
    tb.register_service("noop", [](common::NodeId,
                                   const serial::BufferChain&,
                                   rmi::Replier replier) { replier.ok({}); });
    if (shards == 1) {
      EXPECT_NO_THROW((void)ta.call_sync(b, "noop", {}));
      EXPECT_EQ(ssim.counter("rmi.calls"), 1);
    } else {
      expect_refused([&] { (void)ta.call_sync(b, "noop", {}); },
                     "one-shard network");
    }
  }
}

TEST(ShardedSim, CounterAggregatesAcrossShards) {
  sim::ShardedSim ssim(3, 7, 100);
  for (std::size_t i = 0; i < 3; ++i) {
    ssim.shard(i).stats().add("test.key", static_cast<std::int64_t>(i) + 1);
  }
  EXPECT_EQ(ssim.counter("test.key"), 6);
}

// --- affinity mapping + per-pair lookahead (ISSUE 10) ----------------------
//
// The WAN mesh is the geometry the remapped engine exists for: `sites`
// clusters of co-located nodes chattering all-to-all inside each site,
// joined by 20ms hops that only site leaders cross.  These tests pin the
// tentpole contract on that mesh: per-node delivery order (AND shard-local
// timestamps) are a pure function of the seed — independent of the
// node:shard mapping, of uniform vs per-pair lookahead, and of the worker
// count — while the mapping + matrix change only how much the run pays in
// windows and barriers.

constexpr common::SimDuration kTestWanHopUs = 20'000;

struct WanTestParams {
  int nodes = 16;
  int sites = 4;
  int calls_per_link = 6;   // site-local links
  int cross_calls = 3;      // leader <-> leader links
  bool identity = false;    // one shard per node instead of one per site
  bool per_pair = true;     // refresh the lookahead matrix from the model
  int threads = 2;
  std::uint64_t seed = 1;
  bool chaos = false;       // apply a seeded fault schedule mid-run
};

struct WanTestResult {
  bool completed = false;
  std::int64_t windows = 0;
  std::int64_t faults_applied = 0;
  std::vector<std::vector<Observation>> observed;
};

WanTestResult run_wan_mesh(const WanTestParams& p) {
  const net::CostModel model = net::CostModel::wan_site();
  const int per_site = p.nodes / p.sites;
  const std::size_t shard_count = static_cast<std::size_t>(
      p.identity ? p.nodes : p.sites);

  std::vector<net::AffinityEdge> edges;
  for (int s = 0; s < p.sites; ++s) {
    for (int a = 0; a < per_site; ++a) {
      for (int b = a + 1; b < per_site; ++b) {
        edges.push_back({static_cast<std::size_t>(s * per_site + a),
                         static_cast<std::size_t>(s * per_site + b),
                         2.0 * p.calls_per_link});
      }
    }
  }
  for (int s = 0; s < p.sites; ++s) {
    for (int t = s + 1; t < p.sites; ++t) {
      edges.push_back({static_cast<std::size_t>(s * per_site),
                       static_cast<std::size_t>(t * per_site),
                       2.0 * p.cross_calls});
    }
  }
  std::vector<std::size_t> mapping;
  if (!p.identity) {
    mapping = net::affinity_mapping(static_cast<std::size_t>(p.nodes),
                                    shard_count, edges);
  }

  sim::ShardedSim ssim(shard_count, p.seed,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model, std::move(mapping));

  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (int i = 0; i < p.nodes; ++i) {
    ids.push_back(net.add_node("s" + std::to_string(i / per_site) + "n" +
                               std::to_string(i % per_site)));
  }
  for (int a = 0; a < p.nodes; ++a) {
    for (int b = 0; b < p.nodes; ++b) {
      if (a != b && a / per_site != b / per_site) {
        net.set_extra_latency(ids[a], ids[b], kTestWanHopUs);
      }
    }
  }
  for (int i = 0; i < p.nodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
  }
  if (p.per_pair) net.refresh_pair_lookaheads();

  WanTestResult result;
  result.observed.assign(static_cast<std::size_t>(p.nodes) + 1, {});
  const common::VerbId echo = common::intern_verb("wan.echo");
  for (int i = 0; i < p.nodes; ++i) {
    auto* log = &result.observed[ids[i].value()];
    auto& sim = net.node_sim(ids[i]);
    transports[i]->register_service(
        echo, [log, &sim](common::NodeId caller,
                          const serial::BufferChain& body,
                          rmi::Replier replier) {
          serial::ChainReader r(body);
          log->emplace_back(caller.value(), r.read_u64(), sim.now());
          replier.ok(body);
        });
  }

  struct Pipe {
    rmi::Transport* transport;
    common::NodeId dst;
    std::int64_t next = 0;
    std::int64_t total = 0;
    std::int64_t* completed = nullptr;
  };
  std::vector<std::int64_t> completed(static_cast<std::size_t>(p.nodes) + 1,
                                      0);
  std::vector<Pipe> pipes;
  std::int64_t total_calls = 0;
  for (int a = 0; a < p.nodes; ++a) {
    for (int b = 0; b < p.nodes; ++b) {
      if (a == b) continue;
      const bool same_site = a / per_site == b / per_site;
      const bool leaders = a % per_site == 0 && b % per_site == 0;
      if (!same_site && !leaders) continue;
      const std::int64_t calls = same_site ? p.calls_per_link : p.cross_calls;
      pipes.push_back(Pipe{transports[a].get(), ids[b], 0, calls,
                           &completed[ids[a].value()]});
      total_calls += calls;
    }
  }
  std::function<void(Pipe&)> next_call = [&](Pipe& pipe) {
    if (pipe.next >= pipe.total) return;
    serial::Writer w(8);
    w.write_u64(static_cast<std::uint64_t>(pipe.next++));
    pipe.transport->call(pipe.dst, echo, w.take(),
                         [&next_call, &pipe](rmi::CallResult r) {
                           if (!r.ok) {
                             throw common::MageError("wan echo failed: " +
                                                     r.error);
                           }
                           ++*pipe.completed;
                           next_call(pipe);
                         });
  };

  if (p.chaos) {
    testing::ChaosParams chaos_params;
    chaos_params.nodes = p.nodes;
    chaos_params.fault_t0_us = 5'000;
    chaos_params.fault_span_us = 60'000;  // faults overlap the 40ms WAN RTTs
    net.set_fault_schedule(
        testing::random_fault_schedule(p.seed, chaos_params));
    // Horizon ticks keep virtual time moving past the last schedule entry
    // even if the storm drains early, so every fault is guaranteed to fire.
    const common::SimTime horizon =
        chaos_params.fault_t0_us + chaos_params.fault_span_us * 2;
    for (common::SimTime t = 5'000; t <= horizon; t += 5'000) {
      net.node_sim(ids[0]).schedule_at(t, [] {});
    }
  }

  for (auto& pipe : pipes) {
    next_call(pipe);
    next_call(pipe);  // window of 2 outstanding per link
  }
  result.completed = ssim.run_until(
      [&] {
        std::int64_t sum = 0;
        for (auto c : completed) sum += c;
        return sum == total_calls &&
               (!p.chaos || net.pending_fault_events() == 0);
      },
      p.threads, /*deadline=*/60'000'000);
  result.windows = ssim.windows();
  result.faults_applied = ssim.counter("net.faults_applied");
  return result;
}

TEST(ShardedAffinity, MappingDoesNotChangeDelivery) {
  // Clustered (one site per shard) vs identity (one node per shard): the
  // mapping decides which messages ride the intra-shard fast path, and it
  // must change NOTHING about what each node observes — order or clock.
  WanTestParams clustered;
  WanTestParams identity;
  identity.identity = true;
  const WanTestResult a = run_wan_mesh(clustered);
  const WanTestResult b = run_wan_mesh(identity);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.observed, b.observed);
  // The payoff the mapping exists for: site-local traffic stops bounding
  // the windows, so the clustered run syncs strictly less often.
  EXPECT_LT(a.windows, b.windows);
}

TEST(ShardedAffinity, PerPairLookaheadPreservesDelivery) {
  // The matrix widens windows (cross-shard links all carry the 20ms WAN
  // hop, so window_end can jump by it); it must not move any delivery.
  WanTestParams matrix;
  WanTestParams uniform;
  uniform.per_pair = false;
  const WanTestResult a = run_wan_mesh(matrix);
  const WanTestResult b = run_wan_mesh(uniform);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.observed, b.observed);
  // Uniform lookahead is the 60us model floor; the per-pair matrix rides
  // the 20ms hop, so the same run commits strictly fewer windows.  (The
  // gap is modest here only because the frontier jumps across empty
  // stretches of virtual time; the bench meshes show the full payoff.)
  EXPECT_LT(a.windows, b.windows);
}

TEST(ShardedAffinity, DeterministicAcrossWorkersAndSeeds) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    WanTestParams params;
    params.seed = seed;
    params.threads = 1;
    const WanTestResult one = run_wan_mesh(params);
    params.threads = 2;
    const WanTestResult two = run_wan_mesh(params);
    params.threads = 8;
    const WanTestResult eight = run_wan_mesh(params);
    ASSERT_TRUE(one.completed && two.completed && eight.completed);
    EXPECT_EQ(one.observed, two.observed) << "seed " << seed;
    EXPECT_EQ(one.observed, eight.observed) << "seed " << seed;
  }
}

TEST(ShardedAffinity, ChaosStormOnWanMesh) {
  // The 64-node WAN mesh under a seeded fault schedule (loss bursts, a
  // partition/heal, node crash/restarts): the full chaos machinery rides
  // the affinity mapping + lookahead matrix, and the run stays a pure
  // function of the seed at any worker count.
  WanTestParams params;
  params.nodes = 64;
  params.sites = 8;
  params.calls_per_link = 4;
  params.cross_calls = 2;
  params.chaos = true;
  params.seed = 7;
  params.threads = 1;
  const WanTestResult one = run_wan_mesh(params);
  params.threads = 2;
  const WanTestResult two = run_wan_mesh(params);
  ASSERT_TRUE(one.completed);
  ASSERT_TRUE(two.completed);
  EXPECT_GT(one.faults_applied, 0);
  EXPECT_EQ(one.faults_applied, two.faults_applied);
  EXPECT_EQ(one.observed, two.observed);
  // Exactly-once under chaos: every (caller, seq) executed exactly once on
  // its destination despite drops and retransmissions.
  for (std::size_t node = 1; node < one.observed.size(); ++node) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> counts;
    for (const Observation& o : one.observed[node]) {
      ++counts[{std::get<0>(o), std::get<1>(o)}];
    }
    for (const auto& [key, count] : counts) {
      EXPECT_EQ(count, 1) << "node " << node << " caller " << key.first
                          << " seq " << key.second;
    }
  }
}

TEST(ShardedAffinity, MatrixValidationNamesTheBadLink) {
  // A matrix entry smaller than the fastest message the model can deliver
  // across that shard pair would let a post land inside a committed
  // window — the old engine deadlocked; the new one throws naming the
  // link before any worker starts.
  const net::CostModel model = net::CostModel::wan_site();
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model, std::vector<std::size_t>{0, 1});
  net.add_node("alpha");
  net.add_node("beta");
  net.refresh_pair_lookaheads();
  EXPECT_NO_THROW(net.validate_pair_lookaheads());
  // Hand-corrupt one direction: claim 1 second of lookahead on a link the
  // model can cross in ~60us.
  ssim.set_pair_lookahead(0, 1, 1'000'000);
  try {
    net.validate_pair_lookaheads();
    FAIL() << "validate_pair_lookaheads accepted an unsound matrix";
  } catch (const common::MageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
  // The setter itself rejects degenerate entries outright.
  EXPECT_THROW(ssim.set_pair_lookahead(0, 1, 0), common::MageError);
  EXPECT_THROW(ssim.set_pair_lookahead(0, 2, 100), common::MageError);
}

TEST(ShardedAffinity, MappingClustersHeavyEdgesWithinCapacity) {
  // 8 nodes, 2 shards: heavy edges inside {0..3} and {4..7}, light edges
  // across.  The greedy clusterer must recover the two groups exactly and
  // be a pure function of its inputs.
  std::vector<net::AffinityEdge> edges;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      edges.push_back({a, b, 100.0});
      edges.push_back({a + 4, b + 4, 100.0});
    }
  }
  edges.push_back({0, 4, 1.0});
  const auto mapping = net::affinity_mapping(8, 2, edges);
  ASSERT_EQ(mapping.size(), 8u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(mapping[i], mapping[0]);
    EXPECT_EQ(mapping[i + 4], mapping[4]);
  }
  EXPECT_NE(mapping[0], mapping[4]);  // capacity 4 forbids one mega-group
  EXPECT_EQ(mapping, net::affinity_mapping(8, 2, edges));
  EXPECT_THROW(net::affinity_mapping(8, 0, {}), common::MageError);
  EXPECT_THROW(net::affinity_mapping(2, 2, {{0, 5, 1.0}}),
               common::MageError);
}

// --- work stealing across workers ------------------------------------------
//
// The skewed mesh: 16 nodes on 16 shards, and every call targets nodes 0
// and 1 — the two hot shards sit in worker 0's home block at 2, 4 and 8
// workers, the load MAGE creates when hot objects gather on a few nodes.
// Idle workers steal the hot shards; which worker runs a shard must change
// nothing a node observes.

constexpr int kSkewNodes = 16;
constexpr int kSkewTargets = 2;
constexpr int kSkewCalls = 40;

MeshRun run_skewed_mesh(int threads, std::uint64_t seed) {
  return run_echo_mesh(kSkewNodes, kSkewCalls, threads, seed, kSkewTargets);
}

std::vector<std::int64_t> shard_events(const MeshRun& run) {
  std::vector<std::int64_t> events;
  for (const auto& shard : run.profile.shards) events.push_back(shard.events);
  return events;
}

TEST(ShardedSteal, SkewedMeshIdenticalAtAnyWorkerCount) {
  for (const std::uint64_t seed : {3ull, 5ull, 8ull}) {
    const MeshRun one = run_skewed_mesh(1, seed);
    // Every node's calls reach both hot nodes (each skips itself).
    EXPECT_EQ(one.observed[1].size(), 15u * kSkewCalls);
    EXPECT_EQ(one.observed[2].size(), 15u * kSkewCalls);
    EXPECT_TRUE(one.observed[3].empty());
    for (const int threads : {2, 4, 8}) {
      const MeshRun many = run_skewed_mesh(threads, seed);
      EXPECT_EQ(one.observed, many.observed)
          << "seed " << seed << ", " << threads << " workers";
    }
  }
}

TEST(ShardedSteal, PerShardEventCountsIndependentOfWorkers) {
  const MeshRun one = run_skewed_mesh(1, 13);
  const std::vector<std::int64_t> events = shard_events(one);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kSkewNodes));
  // The skew is real: the two hot shards outwork every other shard.
  for (std::size_t s = 2; s < events.size(); ++s) {
    EXPECT_GT(events[0], events[s]) << "shard " << s;
    EXPECT_GT(events[1], events[s]) << "shard " << s;
  }
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(events, shard_events(run_skewed_mesh(threads, 13)))
        << threads << " workers";
  }
}

TEST(ShardedSteal, OnlyMultipleWorkersSteal) {
  const MeshRun one = run_skewed_mesh(1, 21);
  EXPECT_EQ(one.profile.steals, 0);
  ASSERT_EQ(one.profile.workers.size(), 1u);
  EXPECT_GT(one.profile.workers[0].busy_ns, 0);

  const MeshRun four = run_skewed_mesh(4, 21);
  EXPECT_GE(four.profile.steals, 1);
  ASSERT_EQ(four.profile.workers.size(), 4u);
  std::int64_t shard_busy = 0;
  for (const auto& shard : four.profile.shards) shard_busy += shard.busy_ns;
  std::int64_t worker_busy = 0;
  for (const auto& worker : four.profile.workers) {
    worker_busy += worker.busy_ns;
  }
  // Workers are busy exactly while they run shards.
  EXPECT_EQ(shard_busy, worker_busy);
}

}  // namespace
}  // namespace mage
