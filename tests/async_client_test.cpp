// AsyncClient facade + call policies: deadline/hedge/retry timing,
// epoch-fenced chases, one-way zero-retry, and the sharded chaos variant
// (AsyncChaos.*: digest-identical at 1/2/8 workers across seeds).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/call_policy.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/directory.hpp"
#include "rts/future.hpp"
#include "rts/server.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "support/chaos_harness.hpp"
#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::Counter;

// A hand-built driver-engine federation (no MageSystem: these tests need
// to install fault schedules and custom CallPolicies per client).
struct Cluster {
  explicit Cluster(int nodes, std::uint64_t seed = 42)
      : sim(seed), net(sim, testing::chaos_model()) {
    ClassBuilder<Counter>(world, "Counter")
        .method("increment", &Counter::increment)
        .method("add", &Counter::add)
        .method("get", &Counter::get);
    for (int i = 0; i < nodes; ++i) {
      ids.push_back(net.add_node("n" + std::to_string(i + 1)));
    }
    for (int i = 0; i < nodes; ++i) {
      transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
      servers.push_back(
          std::make_unique<MageServer>(*transports[i], world, directory));
      servers[i]->class_cache().install("Counter");
    }
  }

  // Binds a fresh public Counter named `name` on node index `home`.
  void bind_counter(const std::string& name, int home) {
    ComponentInfo info;
    info.name = name;
    info.class_name = "Counter";
    info.home = ids[home];
    info.is_public = true;
    directory.announce(info);
    servers[home]->registry().bind(name, world.instantiate("Counter"));
  }

  [[nodiscard]] std::int64_t counter(const std::string& name) {
    return sim.stats().counter(name);
  }

  sim::Simulation sim;
  net::Network net;
  ClassWorld world;
  Directory directory;
  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<MageServer>> servers;
};

// --- deadline --------------------------------------------------------------

TEST(AsyncClientTest, DeadlineExpiresMidBackoff) {
  Cluster cluster(2);
  // The target is unreachable for the whole test: the first attempt fails
  // after 2 transmissions x 2ms, a retry is scheduled 50ms out, and the
  // 20ms overall deadline expires in the middle of that backoff.
  net::FaultSchedule schedule;
  schedule.partition(0, cluster.ids[0], cluster.ids[1]);
  cluster.net.set_fault_schedule(std::move(schedule));

  rmi::CallPolicy policy;
  policy.deadline_us = 20'000;
  policy.attempt_timeout_us = 2'000;
  policy.attempt_transmissions = 2;
  policy.max_retries = 5;
  policy.backoff_base_us = 50'000;
  policy.backoff_multiplier = 1.0;
  AsyncClient client(*cluster.servers[0], policy);

  std::string error;
  common::SimTime completed_at = -1;
  auto future = client.ping(cluster.ids[1]).on_error([&](const std::string& e) {
    error = e;
    completed_at = cluster.sim.now();
  });
  ASSERT_TRUE(cluster.sim.run_until([&] { return future.completed(); }));

  EXPECT_TRUE(future.has_error());
  EXPECT_NE(error.find("deadline exceeded"), std::string::npos) << error;
  // The deadline timer completes the call at EXACTLY start + deadline —
  // not at the next attempt boundary.
  EXPECT_EQ(completed_at, 20'000);
  EXPECT_EQ(cluster.counter("rmi.deadline_exceeded"), 1);
  EXPECT_EQ(cluster.counter("rmi.retries"), 1);  // scheduled, then killed

  // The pending backoff timer was cancelled with the call: draining the
  // queue must not launch the killed retry.
  cluster.sim.run_until_idle();
  EXPECT_EQ(cluster.counter("rmi.retries"), 1);
  EXPECT_EQ(cluster.counter("rmi.deadline_exceeded"), 1);
}

// --- hedging ---------------------------------------------------------------

TEST(AsyncClientTest, HedgeWinnerCancelsLoserRetryTimer) {
  Cluster cluster(2);
  // Drop the primary's one transmission (sent at t=0); the hedge launches
  // at t=2ms, after the burst, and wins.  The primary's retransmission
  // timer (20ms out) must be cancelled by the win — not fire late.
  net::FaultSchedule schedule;
  schedule.link_loss_burst(0, cluster.ids[0], cluster.ids[1], 1.0, 1'000);
  cluster.net.set_fault_schedule(std::move(schedule));

  rmi::CallPolicy policy;
  policy.attempt_timeout_us = 20'000;
  policy.attempt_transmissions = 4;
  policy.hedge_after_us = 2'000;
  AsyncClient client(*cluster.servers[0], policy);

  auto future = client.ping(cluster.ids[1]);
  ASSERT_TRUE(cluster.sim.run_until([&] { return future.completed(); }));

  EXPECT_TRUE(future.has_value()) << future.error();
  // Completed shortly after the hedge launch — not after the primary's
  // 20ms retransmission period.
  EXPECT_GT(cluster.sim.now(), 2'000);
  EXPECT_LT(cluster.sim.now(), 20'000);
  EXPECT_EQ(cluster.counter("rmi.hedged_calls"), 1);
  EXPECT_EQ(cluster.counter("rmi.hedge_wins"), 1);
  EXPECT_EQ(cluster.counter("rmi.cancelled_calls"), 1);

  // No late retransmissions: the loser's timer is dead, so draining the
  // queue sends nothing more.
  cluster.sim.run_until_idle();
  EXPECT_EQ(cluster.counter("rmi.retransmissions"), 0);
}

// --- retries, a hedge and a deadline in one policy --------------------------

TEST(AsyncClientTest, RetriedHedgedCallKeepsItsTimeline) {
  Cluster cluster(2);
  // The partition kills the first attempt outright: its primary (sent at
  // 0 and 2ms) fails at 4ms and its hedge (1ms and 3ms) at 5ms.  The retry
  // goes out after a 3ms backoff, at 8ms, when the link is healed but the
  // loss burst eats the primary's first transmission; the hedge launched
  // at 9ms wins, and the primary is cancelled before it retransmits.  The
  // 40ms deadline never fires.
  net::FaultSchedule schedule;
  schedule.partition_for(0, cluster.ids[0], cluster.ids[1], 6'000);
  schedule.link_loss_burst(8'000, cluster.ids[0], cluster.ids[1], 1.0, 500);
  cluster.net.set_fault_schedule(std::move(schedule));

  rmi::CallPolicy policy;
  policy.deadline_us = 40'000;
  policy.attempt_timeout_us = 2'000;
  policy.attempt_transmissions = 2;
  policy.max_retries = 3;
  policy.backoff_base_us = 3'000;
  policy.backoff_multiplier = 2.0;
  policy.hedge_after_us = 1'000;
  AsyncClient client(*cluster.servers[0], policy);

  common::SimTime completed_at = -1;
  auto future = client.ping(cluster.ids[1]).then([&](Unit&) {
    completed_at = cluster.sim.now();
  });
  ASSERT_TRUE(cluster.sim.run_until([&] { return future.completed(); }));
  ASSERT_TRUE(future.has_value()) << future.error();

  // Exact literals: any reordering of the timers or cancellations moves
  // them.  One retry; two hedges, the second of which wins; the retry's
  // primary is the one cancelled; each first-attempt branch retransmitted
  // once.
  EXPECT_EQ(completed_at, 9'540);
  EXPECT_EQ(cluster.counter("rmi.retries"), 1);
  EXPECT_EQ(cluster.counter("rmi.hedged_calls"), 2);
  EXPECT_EQ(cluster.counter("rmi.hedge_wins"), 1);
  EXPECT_EQ(cluster.counter("rmi.cancelled_calls"), 1);
  EXPECT_EQ(cluster.counter("rmi.retransmissions"), 2);
  EXPECT_EQ(cluster.counter("rmi.deadline_exceeded"), 0);

  // Nothing is left armed: draining the queue fires no deadline, no
  // retry and no retransmission.
  cluster.sim.run_until_idle();
  EXPECT_EQ(cluster.counter("rmi.deadline_exceeded"), 0);
  EXPECT_EQ(cluster.counter("rmi.retries"), 1);
  EXPECT_EQ(cluster.counter("rmi.retransmissions"), 2);
}

// --- backoff jitter ----------------------------------------------------------

// When an always-failing jittered ping from a to b completes, on one
// Simulation (`shards` 0) or on `shards` shards under `mapping`.
common::SimTime jittered_ping_failed_at(std::size_t shards,
                                        std::vector<std::size_t> mapping) {
  const net::CostModel model = testing::chaos_model();
  std::optional<sim::Simulation> one;
  std::optional<sim::ShardedSim> many;
  std::optional<net::Network> net;
  if (shards == 0) {
    one.emplace(42);
    net.emplace(*one, model);
  } else {
    many.emplace(shards, 42, net::Network::min_link_latency(model));
    net.emplace(*many, model, std::move(mapping));
  }
  ClassWorld world;
  Directory directory;
  const common::NodeId a = net->add_node("a");
  const common::NodeId b = net->add_node("b");
  rmi::Transport transport_a(*net, a);
  rmi::Transport transport_b(*net, b);
  MageServer server_a(transport_a, world, directory);
  MageServer server_b(transport_b, world, directory);
  net::FaultSchedule schedule;
  schedule.partition(0, a, b);
  net->set_fault_schedule(std::move(schedule));

  rmi::CallPolicy policy;
  policy.attempt_timeout_us = 1'000;
  policy.attempt_transmissions = 1;
  policy.max_retries = 4;
  policy.backoff_base_us = 5'000;
  policy.backoff_multiplier = 1.0;
  policy.backoff_jitter = 0.5;
  AsyncClient client(server_a, policy);

  common::SimTime failed_at = -1;
  auto future = client.ping(b).on_error(
      [&](const std::string&) { failed_at = net->node_sim(a).now(); });
  const auto done = [&future] { return future.completed(); };
  if (shards == 0) {
    EXPECT_TRUE(one->run_until(done));
  } else {
    EXPECT_TRUE(many->run_until(done, 1));
  }
  EXPECT_TRUE(future.has_error());
  return failed_at;
}

TEST(AsyncClientTest, JitteredBackoffIgnoresTheShardMapping) {
  // Each backoff draws from a's own stream, a function of the engine seed
  // and a's node id: where a lives, and who shares its shard, cannot move
  // the retry schedule.
  const common::SimTime alone = jittered_ping_failed_at(0, {});
  const common::SimTime identity = jittered_ping_failed_at(2, {0, 1});
  const common::SimTime swapped = jittered_ping_failed_at(2, {1, 0});
  EXPECT_EQ(identity, alone);
  EXPECT_EQ(swapped, alone);
  // Five 1ms attempts and four 5ms +-50% pauses.
  EXPECT_GE(alone, 5 * 1'000 + 4 * 2'500);
  EXPECT_LE(alone, 5 * 1'000 + 4 * 7'500);
}

// --- epoch fence vs a stale Moved hint -------------------------------------

TEST(AsyncClientTest, ChaseRetriesPastStaleMovedHintUntilChainCatchesUp) {
  Cluster cluster(5);
  cluster.bind_counter("obj", /*home=*/0);

  // Build a two-hop forwarding chain: obj moves n1 -> n2 -> n3.  n1's
  // forwarding address is left one epoch behind (it still points at n2).
  AsyncClient mover_a(*cluster.servers[0]);
  auto moved_a = mover_a.move("obj", cluster.ids[1]);
  ASSERT_TRUE(cluster.sim.run_until([&] { return moved_a.completed(); }));
  ASSERT_TRUE(moved_a.has_value()) << moved_a.error();

  AsyncClient mover_b(*cluster.servers[1]);
  auto moved_b = mover_b.move("obj", cluster.ids[2]);
  ASSERT_TRUE(cluster.sim.run_until([&] { return moved_b.completed(); }));
  ASSERT_TRUE(moved_b.has_value()) << moved_b.error();
  const std::uint64_t fresh_epoch = mover_b.known_epoch("obj");
  ASSERT_GT(fresh_epoch, 0u);

  // The chaser (n4) has confirmed epoch knowledge of the second move but
  // no location knowledge, so it asks the static home n1 — whose Moved
  // hint carries the FIRST move's epoch.  The fence must reject it (never
  // chase placement history backwards), and the chase re-locates.
  AsyncClient chaser(*cluster.servers[3]);
  chaser.note_epoch("obj", fresh_epoch);
  auto invoked = chaser.invoke<std::int64_t>("obj", "increment");

  // n1's own min_epoch-fenced lookup dead-ends too (its forwarding
  // knowledge is one epoch behind the chaser's fence), but the chain
  // still leads to the live binding — so locate()'s last-resort unfenced
  // walk follows the stale link forward (epochs rise strictly along a
  // chain) and converges without any outside help.  A genuine
  // retry/hint/fence race, resolved deterministically.
  ASSERT_TRUE(cluster.sim.run_until([&] { return invoked.completed(); },
                                    5'000'000));
  ASSERT_TRUE(invoked.has_value()) << invoked.error();
  EXPECT_EQ(invoked.value(), 1);  // exactly one execution despite the chase
  EXPECT_GE(cluster.counter("rts.stale_hints_rejected"), 1);
  EXPECT_GE(cluster.counter("rts.async_relocates"), 1);
  EXPECT_GE(cluster.counter("rts.unfenced_walks"), 1);
  EXPECT_EQ(cluster.counter("rts.async_invokes"), 1);
}

// --- remote rejections fail at once ----------------------------------------

TEST(AsyncClientTest, AccessDeniedInvokeFailsOnceWithTheDenial) {
  Cluster cluster(2);
  cluster.bind_counter("obj", /*home=*/1);
  cluster.servers[1]->access().deny_node(Operation::Invoke, cluster.ids[0]);

  AsyncClient client(*cluster.servers[0]);
  auto invoked = client.invoke<std::int64_t>("obj", "increment");
  ASSERT_TRUE(cluster.sim.run_until([&] { return invoked.completed(); }));

  // A rejection is the server's final word: no re-locate, no re-send.
  ASSERT_TRUE(invoked.has_error());
  EXPECT_EQ(invoked.error().rfind("access denied", 0), 0u) << invoked.error();
  EXPECT_EQ(cluster.counter("rts.access_denials"), 1);
  EXPECT_EQ(cluster.counter("rts.async_relocates"), 0);
}

TEST(AsyncClientTest, StatusErrorSurfacesTheServersText) {
  Cluster cluster(2);
  ClassBuilder<testing::Grumpy>(cluster.world, "Grumpy")
      .method("refuse", &testing::Grumpy::refuse);
  ComponentInfo info;
  info.name = "grumpy";
  info.class_name = "Grumpy";
  info.home = cluster.ids[1];
  cluster.directory.announce(info);
  cluster.servers[1]->class_cache().install("Grumpy");
  cluster.servers[1]->registry().bind("grumpy",
                                      cluster.world.instantiate("Grumpy"));

  AsyncClient client(*cluster.servers[0]);
  auto invoked = client.invoke<std::int64_t>("grumpy", "refuse");
  ASSERT_TRUE(cluster.sim.run_until([&] { return invoked.completed(); }));

  ASSERT_TRUE(invoked.has_error());
  EXPECT_EQ(invoked.error(), "grumpy object refuses");
  EXPECT_EQ(cluster.counter("rts.invocations"), 1);
}

// --- one-way verbs are never policy-retried --------------------------------

TEST(AsyncClientTest, OnewayIgnoresRetryAndHedgePolicy) {
  Cluster cluster(2);
  cluster.bind_counter("obj", /*home=*/1);
  // Drop everything for 1.5ms: a hedging stack would launch its hedge at
  // 0.5ms, a retrying stack would re-issue with a fresh request id.  The
  // one-way must do neither — only the transport's same-request-id
  // retransmission (at-most-once safe) may recover it.
  net::FaultSchedule schedule;
  schedule.loss_burst(0, 1.0, 1'500);
  cluster.net.set_fault_schedule(std::move(schedule));

  rmi::CallPolicy aggressive;
  aggressive.attempt_timeout_us = 2'000;
  aggressive.attempt_transmissions = 8;
  aggressive.max_retries = 5;
  aggressive.backoff_base_us = 1'000;
  aggressive.hedge_after_us = 500;
  AsyncClient client(*cluster.servers[0], aggressive);

  auto ack = client.invoke_oneway("obj", "add", std::int64_t{3});
  ASSERT_TRUE(cluster.sim.run_until([&] { return ack.completed(); }));
  ASSERT_TRUE(ack.has_value()) << ack.error();

  EXPECT_EQ(cluster.counter("rmi.hedged_calls"), 0);
  EXPECT_EQ(cluster.counter("rmi.retries"), 0);
  EXPECT_GE(cluster.counter("rmi.retransmissions"), 1);

  // Exactly one execution: the parked result is 3, not a multiple of it.
  auto value = client.invoke<std::int64_t>("obj", "get");
  ASSERT_TRUE(cluster.sim.run_until([&] { return value.completed(); }));
  ASSERT_TRUE(value.has_value()) << value.error();
  EXPECT_EQ(value.value(), 3);
}

// --- future combinators (driver-side) --------------------------------------

TEST(AsyncClientTest, WhenAllAndWhenAnyOverProbes) {
  Cluster cluster(3);
  AsyncClient client(*cluster.servers[0]);

  std::vector<MageFuture<double>> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(client.load_of(cluster.ids[i]));
  auto all = when_all(probes);
  auto any = when_any(probes);
  ASSERT_TRUE(cluster.sim.run_until(
      [&] { return all.completed() && any.completed(); }));
  ASSERT_TRUE(all.has_value()) << all.error();
  EXPECT_EQ(all.value().size(), 3u);
  ASSERT_TRUE(any.has_value()) << any.error();
  EXPECT_LT(any.value().first, 3u);
}

// --- sharded chaos variant -------------------------------------------------

constexpr int kChaosNodes = 6;
constexpr int kChaosSessions = 12;
constexpr int kInvokesPerGen = 40;
constexpr int kChaosWindow = 3;

std::string chaos_session(int s) { return "c" + std::to_string(s); }

struct AsyncChaosRun {
  bool completed = false;
  std::int64_t failures = 0;
  // Per generator node: FNV fold of (session, returned value, shard-local
  // completion time) in completion order — single writer per slot.
  std::vector<std::uint64_t> digests;
  // Aggregated per session: invokes issued / sum of returned values.
  std::vector<std::int64_t> issued;
  std::vector<std::int64_t> retsum;
  std::int64_t relocates = 0;
  std::int64_t redirects = 0;
};

// The storm_balancer workload shrunk and run under a seed-generated fault
// schedule (loss bursts, partitions, a crash/restart), with a mover
// migrating sessions while every node's generator chases them.
AsyncChaosRun run_async_chaos(std::uint64_t seed, int threads) {
  const net::CostModel model = testing::chaos_model();
  sim::ShardedSim ssim(kChaosNodes, seed,
                       net::Network::min_link_latency(model));
  net::Network net(ssim, model);

  ClassWorld world;
  ClassBuilder<Counter>(world, "Counter")
      .method("add", &Counter::add)
      .method("get", &Counter::get);
  Directory directory;

  std::vector<common::NodeId> ids;
  for (int i = 0; i < kChaosNodes; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<MageServer>> servers;
  std::vector<std::unique_ptr<AsyncClient>> clients;
  rmi::CallPolicy invoke_policy;  // transport-level recovery only
  invoke_policy.attempt_timeout_us = 3'000;
  invoke_policy.attempt_transmissions = 64;
  for (int i = 0; i < kChaosNodes; ++i) {
    transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
    servers.push_back(
        std::make_unique<MageServer>(*transports[i], world, directory));
    servers[i]->class_cache().install("Counter");
    clients.push_back(
        std::make_unique<AsyncClient>(*servers[i], invoke_policy));
  }
  AsyncClient mover(*servers[0]);

  for (int s = 0; s < kChaosSessions; ++s) {
    ComponentInfo info;
    info.name = chaos_session(s);
    info.class_name = "Counter";
    info.home = ids[s % kChaosNodes];
    info.is_public = true;
    directory.announce(info);
    servers[s % kChaosNodes]->registry().bind(info.name,
                                              world.instantiate("Counter"));
  }

  testing::ChaosParams params;
  params.nodes = kChaosNodes;
  net.set_fault_schedule(testing::random_fault_schedule(seed, params));
  // Horizon ticks keep virtual time moving past the last schedule entry.
  const common::SimTime horizon = params.fault_t0_us + params.fault_span_us * 2;
  for (common::SimTime t = 500; t <= horizon; t += 500) {
    net.node_sim(ids[0]).schedule_at(t, [] {});
  }

  struct Gen {
    std::int64_t issued = 0;
    std::int64_t completed = 0;
    std::int64_t failed = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::vector<std::int64_t> issued_to;
    std::vector<std::int64_t> retsum;
    common::Rng sessions;  // which session each invoke targets
  };
  std::vector<Gen> gens(kChaosNodes);
  for (std::size_t g = 0; g < gens.size(); ++g) {
    gens[g].issued_to.assign(kChaosSessions, 0);
    gens[g].retsum.assign(kChaosSessions, 0);
    gens[g].sessions = common::Rng(common::SplitMix64(seed + g).next());
  }

  using storm::fold;
  std::function<void(int)> issue = [&](int g) {
    Gen& gen = gens[g];
    if (gen.issued >= kInvokesPerGen) return;
    ++gen.issued;
    const int s = static_cast<int>(gen.sessions.next_below(kChaosSessions));
    ++gen.issued_to[s];
    auto& sim = net.node_sim(ids[g]);
    clients[g]
        ->invoke<std::int64_t>(chaos_session(s), "add", std::int64_t{1})
        .then([&, g, s](std::int64_t& v) {
          Gen& gn = gens[g];
          gn.retsum[s] += v;
          gn.digest =
              fold(fold(fold(gn.digest, static_cast<std::uint64_t>(s) + 1),
                        static_cast<std::uint64_t>(v)),
                   static_cast<std::uint64_t>(sim.now()));
          ++gn.completed;
          issue(g);
        })
        .on_error([&, g](const std::string&) {
          ++gens[g].failed;
          issue(g);
        });
  };

  // The mover migrates sessions while the storm is invoking them: Moved
  // hints, epoch fences, and relocations all race the chases.  Migrations
  // start after the fault window: a transfer frame lost to the schedule is
  // retransmitted on the transport's default 150ms period, which would pin
  // the session "in transit" past every chaser's 12 x 10ms budget.
  for (int k = 0; k < 10; ++k) {
    net.node_sim(ids[0]).schedule_at(
        horizon + 2'000 + 2'000 * k,
        [&mover, k, &ids] {
          mover.move(chaos_session(k % kChaosSessions),
                     ids[static_cast<std::size_t>(k * 5 + 1) % kChaosNodes])
              .on_error([](const std::string&) {});
        });
  }

  for (int g = 0; g < kChaosNodes; ++g) {
    for (int w = 0; w < kChaosWindow; ++w) issue(g);
  }

  const std::int64_t total =
      static_cast<std::int64_t>(kChaosNodes) * kInvokesPerGen;
  AsyncChaosRun run;
  run.completed = ssim.run_until(
      [&] {
        std::int64_t done = 0;
        for (const auto& g : gens) done += g.completed + g.failed;
        return done == total && net.pending_fault_events() == 0;
      },
      threads, /*deadline=*/60'000'000);

  run.issued.assign(kChaosSessions, 0);
  run.retsum.assign(kChaosSessions, 0);
  for (const auto& g : gens) {
    run.failures += g.failed;
    run.digests.push_back(g.digest);
    for (int s = 0; s < kChaosSessions; ++s) {
      run.issued[s] += g.issued_to[s];
      run.retsum[s] += g.retsum[s];
    }
  }
  run.relocates = ssim.counter("rts.async_relocates");
  run.redirects = ssim.counter("rts.async_redirects");
  return run;
}

// --- combinator edge cases -------------------------------------------------

TEST(FutureEdgeTest, WhenAllOnEmptyVectorCompletesImmediately) {
  // No simulation needed: zero futures means zero pending dependencies, so
  // the combined future must resolve synchronously with an empty vector —
  // the fan-out base case DistMap-style collections rely on.
  std::vector<MageFuture<std::int64_t>> none;
  bool resolved = false;
  std::size_t count = 999;
  when_all(none)
      .then([&](std::vector<std::int64_t>& values) {
        resolved = true;
        count = values.size();
      })
      .on_error([&](const std::string& error) {
        ADD_FAILURE() << "empty when_all failed: " << error;
      });
  EXPECT_TRUE(resolved);
  EXPECT_EQ(count, 0u);
}

TEST(FutureEdgeTest, WhenAnyOnEmptyVectorFailsCleanly) {
  // A race with no contestants can never produce a winner: it must fail
  // immediately (not hang) with a diagnosable error.
  std::vector<MageFuture<std::int64_t>> none;
  bool failed = false;
  std::string message;
  when_any(none)
      .then([&](std::pair<std::size_t, std::int64_t>&) {
        ADD_FAILURE() << "empty when_any produced a winner";
      })
      .on_error([&](const std::string& error) {
        failed = true;
        message = error;
      });
  EXPECT_TRUE(failed);
  EXPECT_EQ(message, "when_any on zero futures");
}

TEST(AsyncChaos, DigestIdenticalAcrossWorkerCountsAndSeeds) {
  for (std::uint64_t seed : {0xA51ull, 0xA52ull, 0xA53ull}) {
    const AsyncChaosRun base = run_async_chaos(seed, 1);
    ASSERT_TRUE(base.completed) << "seed " << seed;
    EXPECT_EQ(base.failures, 0) << "seed " << seed;
    // Exactly-once through every chase: the i-th add on a session returns
    // i, so the returned values of a session's K invokes must sum to
    // K(K+1)/2 — a duplicate or lost execution breaks the triangle sum.
    for (int s = 0; s < kChaosSessions; ++s) {
      const std::int64_t k = base.issued[s];
      EXPECT_EQ(base.retsum[s], k * (k + 1) / 2)
          << "seed " << seed << " session " << s;
    }
    for (int threads : {2, 8}) {
      const AsyncChaosRun replay = run_async_chaos(seed, threads);
      ASSERT_TRUE(replay.completed) << "seed " << seed << " x" << threads;
      EXPECT_EQ(replay.digests, base.digests)
          << "seed " << seed << " diverged at " << threads << " workers";
      EXPECT_EQ(replay.retsum, base.retsum);
      EXPECT_EQ(replay.issued, base.issued);
      EXPECT_EQ(replay.failures, base.failures);
      EXPECT_EQ(replay.relocates, base.relocates);
      EXPECT_EQ(replay.redirects, base.redirects);
    }
  }
}

}  // namespace
}  // namespace mage::rts
