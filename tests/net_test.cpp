// Unit tests for the simulated network: delivery timing, connection warmup,
// ordering, loss/partition injection, tracing, load.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace mage::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Simulation sim{1};
  CostModel model = CostModel::zero();

  std::unique_ptr<Network> make(CostModel m) {
    auto net = std::make_unique<Network>(sim, m);
    a = net->add_node("a");
    b = net->add_node("b");
    c = net->add_node("c");
    return net;
  }

  common::NodeId a, b, c;
};

Message msg(common::NodeId from, common::NodeId to, std::size_t payload = 4) {
  return Message{from,          to, common::intern_verb("test"),
                 MsgKind::Request, {},
                 serial::Buffer(std::vector<std::uint8_t>(payload, 0))};
}

TEST_F(NetFixture, DeliversToHandler) {
  auto net = make(CostModel::zero());
  std::optional<Message> got;
  net->set_handler(b, [&got](Message m) { got = std::move(m); });
  net->send(msg(a, b));
  sim.run_until_idle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, a);
  EXPECT_EQ(got->verb, common::intern_verb("test"));
  EXPECT_EQ(got->label(), "test");
}

TEST_F(NetFixture, WireSizeIncludesHeader) {
  EXPECT_EQ(msg(a, b, 10).wire_size(), 10 + kHeaderBytes);
}

TEST_F(NetFixture, DeliveryTimeMatchesCostModel) {
  CostModel m = CostModel::zero();
  m.propagation_us = 100;
  m.bytes_per_usec = 1.0;  // 1 byte per us
  m.per_message_cpu_us = 50;
  auto net = make(m);
  common::SimTime delivered_at = -1;
  net->set_handler(b, [&](Message) { delivered_at = sim.now(); });
  net->send(msg(a, b, 4));  // wire = 4 + 96 = 100 bytes -> 100us
  sim.run_until_idle();
  EXPECT_EQ(delivered_at, 100 + 100 + 50);
}

TEST_F(NetFixture, ConnectionSetupChargedOncePerPair) {
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  m.connection_setup_us = 1000;
  m.bytes_per_usec = 1e9;
  auto net = make(m);
  std::vector<common::SimTime> deliveries;
  net->set_handler(b, [&](Message) { deliveries.push_back(sim.now()); });
  net->send(msg(a, b));
  sim.run_until_idle();
  net->send(msg(a, b));
  sim.run_until_idle();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 1010);           // cold: setup + propagation
  EXPECT_EQ(deliveries[1] - deliveries[0], 10);  // warm: propagation only
  EXPECT_EQ(sim.stats().counter("net.connections_opened"), 1);
}

// Warmth is per directed link and sender-owned, but delivering the first
// message warms the receiver's reverse direction (a TCP accept): the reply
// rides the connection its request opened.  Same rule on one Simulation
// and across two shards.
TEST_F(NetFixture, ConnectionIsWarmInBothDirections) {
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  m.connection_setup_us = 1000;
  sim::ShardedSim ssim(2, 1, Network::min_link_latency(m));
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "2 shards" : "one Simulation");
    auto net = sharded ? std::make_unique<Network>(ssim, m)
                       : std::make_unique<Network>(sim, m);
    const auto x = net->add_node("x");  // shard 0
    const auto y = net->add_node("y");  // shard 1 when sharded
    common::SimTime replied_at = -1;
    net->set_handler(y, [&net, x, y](Message) { net->send(msg(y, x)); });
    net->set_handler(x, [&](Message) { replied_at = net->node_sim(x).now(); });
    const common::SimTime t0 = net->node_sim(x).now();
    net->send(msg(x, y));
    if (sharded) {
      ssim.run_until_idle(2);
    } else {
      sim.run_until_idle();
    }
    EXPECT_EQ(replied_at - t0, 1000 + 10 + 10);  // setup once, then warm
    EXPECT_EQ(sharded ? ssim.counter("net.connections_opened")
                      : sim.stats().counter("net.connections_opened"),
              1);
  }
}

// Link records grow with the network: adding a node after traffic keeps
// every existing link warm and opens the new node's links cold.
TEST_F(NetFixture, AddingANodeKeepsExistingLinksWarm) {
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  m.connection_setup_us = 1000;
  auto net = make(m);
  std::vector<common::SimTime> deliveries;
  net->set_handler(b, [&](Message) { deliveries.push_back(sim.now()); });
  net->send(msg(a, b));
  sim.run_until_idle();
  const auto d = net->add_node("d");
  net->set_handler(d, [&](Message) { deliveries.push_back(sim.now()); });
  const auto t0 = sim.now();
  net->send(msg(a, b));
  sim.run_until_idle();
  const auto t1 = sim.now();
  net->send(msg(a, d));
  sim.run_until_idle();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[1] - t0, 10);    // a -> b is still warm
  EXPECT_EQ(deliveries[2] - t1, 1010);  // a -> d opens its connection
  EXPECT_EQ(sim.stats().counter("net.connections_opened"), 2);
}

TEST_F(NetFixture, ResetConnectionsRestoresColdCost) {
  CostModel m = CostModel::zero();
  m.connection_setup_us = 500;
  m.propagation_us = 1;
  auto net = make(m);
  net->set_handler(b, [](Message) {});
  net->send(msg(a, b));
  sim.run_until_idle();
  net->reset_connections();
  const auto t0 = sim.now();
  net->send(msg(a, b));
  sim.run_until_idle();
  EXPECT_EQ(sim.now() - t0, 501);
}

TEST_F(NetFixture, LoopbackIsCheapAndLossless) {
  CostModel m = CostModel::zero();
  m.local_invoke_us = 3;
  m.connection_setup_us = 1000;
  auto net = make(m);
  net->set_loss_rate(1.0);  // would drop every network message
  bool got = false;
  net->set_handler(a, [&](Message) { got = true; });
  net->send(msg(a, a));
  sim.run_until_idle();
  EXPECT_TRUE(got);
  EXPECT_EQ(sim.now(), 3);
  EXPECT_EQ(sim.stats().counter("net.connections_opened"), 0);
}

TEST_F(NetFixture, LossRateDropsMessages) {
  auto net = make(CostModel::zero());
  net->set_loss_rate(0.5);
  int got = 0;
  net->set_handler(b, [&](Message) { ++got; });
  for (int i = 0; i < 200; ++i) net->send(msg(a, b));
  sim.run_until_idle();
  EXPECT_GT(got, 50);
  EXPECT_LT(got, 150);
  EXPECT_EQ(got + sim.stats().counter("net.messages_dropped"), 200);
}

TEST_F(NetFixture, PartitionBlocksBothDirections) {
  auto net = make(CostModel::zero());
  int got = 0;
  net->set_handler(a, [&](Message) { ++got; });
  net->set_handler(b, [&](Message) { ++got; });
  net->set_partitioned(a, b, true);
  net->send(msg(a, b));
  net->send(msg(b, a));
  sim.run_until_idle();
  EXPECT_EQ(got, 0);
  net->set_partitioned(a, b, false);
  net->send(msg(a, b));
  sim.run_until_idle();
  EXPECT_EQ(got, 1);
}

TEST_F(NetFixture, PartitionDoesNotAffectThirdParty) {
  auto net = make(CostModel::zero());
  bool got = false;
  net->set_handler(c, [&](Message) { got = true; });
  net->set_partitioned(a, b, true);
  net->send(msg(a, c));
  sim.run_until_idle();
  EXPECT_TRUE(got);
}

TEST_F(NetFixture, ExtraLatencyIsDirectional) {
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  auto net = make(m);
  net->set_extra_latency(a, b, 500);
  common::SimTime ab = -1, ba = -1;
  net->set_handler(b, [&](Message) { ab = sim.now(); });
  net->set_handler(a, [&](Message) { ba = sim.now(); });
  net->send(msg(a, b));
  sim.run_until_idle();
  const auto t0 = sim.now();
  net->send(msg(b, a));
  sim.run_until_idle();
  EXPECT_EQ(ab, 510);
  EXPECT_EQ(ba - t0, 10);
}

// One rule on every network: a negative extra latency, or a link to a
// node that is not on the network, is refused where it is configured.
TEST_F(NetFixture, ExtraLatencyIsCheckedWhereItIsSet) {
  sim::ShardedSim ssim(2, 1, Network::min_link_latency(model));
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "2 shards" : "one Simulation");
    auto net = sharded ? std::make_unique<Network>(ssim, model)
                       : std::make_unique<Network>(sim, model);
    const auto x = net->add_node("x");
    const auto y = net->add_node("y");
    const common::NodeId absent{7};
    try {
      net->set_extra_latency(x, y, -1'000'000);
      ADD_FAILURE() << "negative extra latency accepted";
    } catch (const common::MageError& e) {
      EXPECT_NE(std::string(e.what()).find("x -> y"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(net->set_extra_latency(x, absent, 5), common::MageError);
    EXPECT_THROW(net->set_extra_latency(absent, x, 5), common::MageError);
    EXPECT_THROW(net->set_extra_latency(common::kNoNode, x, 5),
                 common::MageError);
    EXPECT_NO_THROW(net->set_extra_latency(x, y, 0));
  }
}

TEST_F(NetFixture, AdHocFaultsRejectNodesOffTheNetwork) {
  auto net = make(CostModel::zero());
  const common::NodeId absent{9};
  EXPECT_THROW(net->set_partitioned(a, absent, true), common::MageError);
  EXPECT_THROW(net->set_partitioned(absent, a, true), common::MageError);
  EXPECT_THROW(net->set_node_down(absent, true), common::MageError);
  EXPECT_THROW(net->set_node_down(common::kNoNode, true), common::MageError);
}

// The per-node accessors check the id as the fault mutators do: a node
// off the network throws, naming it, instead of indexing out of bounds.
TEST_F(NetFixture, PerNodeAccessorsRejectNodesOffTheNetwork) {
  auto net = make(CostModel::zero());
  for (const common::NodeId node : {common::NodeId{9}, common::kNoNode}) {
    EXPECT_THROW(net->set_handler(node, [](Message) {}), common::MageError);
    EXPECT_THROW((void)net->label(node), common::MageError);
    EXPECT_THROW(net->set_load(node, 1.0), common::MageError);
    EXPECT_THROW((void)net->load(node), common::MageError);
    EXPECT_THROW(net->set_domain(node, "d"), common::MageError);
    EXPECT_THROW((void)net->domain(node), common::MageError);
  }
  try {
    (void)net->load(common::NodeId{9});
    FAIL() << "load of node 9 on a 3-node network returned";
  } catch (const common::MageError& e) {
    EXPECT_STREQ(e.what(),
                 "load: node 9 is not on this network (it has 3 nodes)");
  }
}

// The wire-FIFO stamps need no opt-in: every non-loopback message carries
// 1, 2, 3, ... on its directed link, each link counting on its own, and
// the delivery-side check sees no violation.
TEST_F(NetFixture, EveryLinkStampsItsOwnWireSequence) {
  auto net = make(CostModel::zero());
  std::vector<std::uint64_t> ab, ac, ba, aa;
  net->set_handler(b, [&](Message m2) { ab.push_back(m2.wire_seq); });
  net->set_handler(c, [&](Message m2) { ac.push_back(m2.wire_seq); });
  net->set_handler(a, [&](Message m2) {
    (m2.from == a ? aa : ba).push_back(m2.wire_seq);
  });
  for (int i = 0; i < 3; ++i) net->send(msg(a, b));
  for (int i = 0; i < 2; ++i) net->send(msg(a, c));
  for (int i = 0; i < 2; ++i) net->send(msg(b, a));
  net->send(msg(a, a));
  sim.run_until_idle();
  EXPECT_EQ(ab, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(ac, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(ba, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(aa, (std::vector<std::uint64_t>{0}));  // loopback: no wire
  EXPECT_EQ(sim.stats().counter("net.fifo_violations"), 0);
}

TEST_F(NetFixture, InOrderDeliveryPerLink) {
  // A big message followed by a small one: FIFO ordering must hold even
  // though the small one would naturally arrive first.
  CostModel m = CostModel::zero();
  m.propagation_us = 10;
  m.bytes_per_usec = 0.001;  // brutally slow wire
  auto net = make(m);
  std::vector<std::string> order;
  net->set_handler(b, [&](Message m2) { order.push_back(m2.label()); });
  Message big{a,           b, common::intern_verb("big"),
              MsgKind::Request, {},
              serial::Buffer(std::vector<std::uint8_t>(10'000, 0))};
  Message small{a, b, common::intern_verb("small"), MsgKind::Request, {}, {}};
  net->send(big);
  net->send(small);
  sim.run_until_idle();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "big");
  EXPECT_EQ(order[1], "small");
}

TEST_F(NetFixture, TraceRecordsDeliveriesAndDrops) {
  auto net = make(CostModel::zero());
  net->set_tracing(true);
  net->set_handler(b, [](Message) {});
  net->send(msg(a, b));
  net->set_partitioned(a, b, true);
  net->send(msg(a, b));
  sim.run_until_idle();
  ASSERT_EQ(net->trace().size(), 2u);
  EXPECT_FALSE(net->trace()[0].dropped);
  EXPECT_TRUE(net->trace()[1].dropped);
  net->clear_trace();
  EXPECT_TRUE(net->trace().empty());
}

TEST_F(NetFixture, LoadIsPerNode) {
  auto net = make(CostModel::zero());
  net->set_load(a, 42.0);
  EXPECT_DOUBLE_EQ(net->load(a), 42.0);
  EXPECT_DOUBLE_EQ(net->load(b), 0.0);
}

TEST_F(NetFixture, NodeLabels) {
  auto net = make(CostModel::zero());
  EXPECT_EQ(net->label(a), "a");
  EXPECT_EQ(net->label(c), "c");
  EXPECT_EQ(net->node_count(), 3u);
  EXPECT_EQ(net->node_ids().size(), 3u);
}

TEST_F(NetFixture, StatsCountMessages) {
  auto net = make(CostModel::zero());
  net->set_handler(b, [](Message) {});
  net->send(msg(a, b, 10));
  sim.run_until_idle();
  EXPECT_EQ(sim.stats().counter("net.messages_sent"), 1);
  EXPECT_EQ(sim.stats().counter("net.messages_delivered"), 1);
  EXPECT_EQ(sim.stats().counter("net.bytes_sent"),
            static_cast<std::int64_t>(10 + kHeaderBytes));
}

// --- fault provenance -------------------------------------------------------

// Which drops count in "net.messages_dropped_by_schedule", for each fault
// kind: every drop a scheduled fault causes, and none once an ad-hoc
// mutator has re-applied the same fault.  Per-link loss has no ad-hoc
// mutator, so its row shows the global ad-hoc loss rate leaving the
// scheduled link's drops counted; an ad-hoc crash of a node the schedule
// already crashed changes nothing, so its drops stay counted until an
// ad-hoc restart and crash.
class FaultProvenance : public ::testing::TestWithParam<FaultKind> {};

TEST_P(FaultProvenance, ScheduledDropsCountUntilAnAdHocMutation) {
  const FaultKind kind = GetParam();
  sim::Simulation sim{3};
  Network net(sim, CostModel::zero());
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  net.set_handler(a, [](Message) {});
  net.set_handler(b, [](Message) {});
  const auto counter = [&](const char* name) {
    return sim.stats().counter(name);
  };
  struct Drops {
    std::int64_t all, by_schedule, by_link_loss;
  };
  // Sends 40 messages a -> b, returning the drops they caused.
  const auto burst = [&] {
    const Drops before{counter("net.messages_dropped"),
                       counter("net.messages_dropped_by_schedule"),
                       counter("net.messages_dropped_by_link_loss")};
    for (int i = 0; i < 40; ++i) net.send(msg(a, b));
    sim.run_until_idle();
    return Drops{counter("net.messages_dropped") - before.all,
                 counter("net.messages_dropped_by_schedule") -
                     before.by_schedule,
                 counter("net.messages_dropped_by_link_loss") -
                     before.by_link_loss};
  };

  FaultSchedule schedule;
  switch (kind) {
    case FaultKind::LossRate: schedule.loss_rate(100, 0.5); break;
    case FaultKind::LinkLoss: schedule.link_loss_rate(100, a, b, 0.5); break;
    case FaultKind::Partition: schedule.partition(100, a, b); break;
    case FaultKind::Crash: schedule.crash(100, b); break;
    default: FAIL() << "not a fault kind this test covers";
  }
  net.set_fault_schedule(std::move(schedule));
  sim.run_until_idle();
  ASSERT_EQ(net.pending_fault_events(), 0u);

  const Drops scheduled = burst();
  EXPECT_GT(scheduled.all, 0);
  EXPECT_EQ(scheduled.by_schedule, scheduled.all);

  switch (kind) {
    case FaultKind::LossRate: {
      net.set_loss_rate(0.5);
      const Drops ad_hoc = burst();
      EXPECT_GT(ad_hoc.all, 0);
      EXPECT_EQ(ad_hoc.by_schedule, 0);
      break;
    }
    case FaultKind::LinkLoss: {
      EXPECT_EQ(scheduled.by_link_loss, scheduled.all);
      net.set_loss_rate(0.5);
      const Drops mixed = burst();
      EXPECT_GT(mixed.by_link_loss, 0);
      EXPECT_GT(mixed.all, mixed.by_link_loss);
      EXPECT_EQ(mixed.by_schedule, mixed.by_link_loss);
      break;
    }
    case FaultKind::Partition: {
      net.set_partitioned(a, b, true);
      const Drops ad_hoc = burst();
      EXPECT_EQ(ad_hoc.all, 40);
      EXPECT_EQ(ad_hoc.by_schedule, 0);
      break;
    }
    case FaultKind::Crash: {
      EXPECT_EQ(scheduled.all, 40);
      net.set_node_down(b, true);  // already down: a no-op
      const Drops still = burst();
      EXPECT_EQ(still.by_schedule, 40);
      net.set_node_down(b, false);
      net.set_node_down(b, true);
      const Drops ad_hoc = burst();
      EXPECT_EQ(ad_hoc.all, 40);
      EXPECT_EQ(ad_hoc.by_schedule, 0);
      break;
    }
    default:
      break;
  }
}

std::string kind_name(const ::testing::TestParamInfo<FaultKind>& info) {
  constexpr const char* kNames[] = {"LossRate", "LinkLoss", "Partition",
                                    "Heal",     "Crash",    "Restart"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(EveryKind, FaultProvenance,
                         ::testing::Values(FaultKind::LossRate,
                                           FaultKind::LinkLoss,
                                           FaultKind::Partition,
                                           FaultKind::Crash),
                         kind_name);

// --- message slots ----------------------------------------------------------

Message hop(common::NodeId from, common::NodeId to, std::uint8_t hops) {
  return Message{from, to, common::intern_verb("hop"), MsgKind::Request, {},
                 serial::Buffer(std::vector<std::uint8_t>{hops})};
}

// A message holds one place from send to handler: a slot on its receiver's
// shard, or its mailbox column until the drain.  Under loss, a partition
// and a crash/restart at 2 workers, a run that drains leaves none held:
// dropped messages never take a slot, and delivered ones, loopback
// included, free theirs when the handler returns.
TEST(MessageSlots, ChaosRunDrainsWithNoMessageHeld) {
  CostModel m = CostModel::zero();
  m.propagation_us = 100;
  sim::ShardedSim ssim(2, 11, Network::min_link_latency(m));
  Network net(ssim, m, {0, 1, 0, 1});
  std::vector<common::NodeId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(net.add_node("n"));
  // Node i forwards each message to node i+1 with one hop less, and every
  // third hop also to itself.  Each counter is written on its node's shard.
  std::vector<std::int64_t> loopbacks(ids.size(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const common::NodeId self = ids[i];
    const common::NodeId next = ids[(i + 1) % ids.size()];
    net.set_handler(self, [&net, &loopbacks, i, self, next](Message& msg) {
      if (msg.from == self) ++loopbacks[i];
      const std::uint8_t left = msg.body.fragment(0).data()[0];
      if (left == 0) return;
      net.send(hop(self, next, left - 1));
      if (left % 3 == 0) net.send(hop(self, self, left - 1));
    });
  }
  FaultSchedule faults;
  faults.loss_burst(500, 0.2, 2'000)
      .partition_for(1'000, ids[0], ids[1], 1'500)
      .crash_for(1'200, ids[3], 1'000);
  net.set_fault_schedule(std::move(faults));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (int k = 0; k < 8; ++k) {
      net.send(hop(ids[i], ids[(i + 1 + k) % ids.size()], 30));
    }
  }
  EXPECT_EQ(net.messages_held(), ids.size() * 8);

  ssim.run_until_idle(2);
  EXPECT_EQ(net.messages_held(), 0u);
  const std::int64_t dropped = ssim.counter("net.messages_dropped");
  EXPECT_GT(dropped, 0);
  EXPECT_GT(ssim.counter("net.messages_dropped_by_schedule"), 0);
  EXPECT_GT(loopbacks[0] + loopbacks[1] + loopbacks[2] + loopbacks[3], 0);
  EXPECT_EQ(ssim.counter("net.messages_sent"),
            ssim.counter("net.messages_delivered") + dropped);
  EXPECT_EQ(ssim.counter("net.fifo_violations"), 0);
}

// The handler reads its message in place, and the message does not move
// while the handler sends: 40 sends from inside it take 40 more slots of
// the same shard (several new chunks), yet it reads on intact.
TEST(MessageSlots, HandlerThatSendsReadsItsMessageIntact) {
  CostModel m = CostModel::zero();
  m.propagation_us = 100;
  sim::Simulation sim{5};
  sim::ShardedSim ssim(2, 5, Network::min_link_latency(m));
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "2 shards" : "one Simulation");
    auto net = sharded ? std::make_unique<Network>(ssim, m)
                       : std::make_unique<Network>(sim, m);
    const auto a = net->add_node("a");  // shard 0
    const auto b = net->add_node("b");  // shard 1 when sharded
    const auto payload = common::intern_verb("payload");
    const std::vector<std::uint8_t> bytes(64, 0x5A);
    int intact = 0;
    int loopbacks = 0;
    net->set_handler(b, [&](Message& msg) {
      if (msg.verb != payload) {
        ++loopbacks;
        return;
      }
      for (int i = 0; i < 40; ++i) net->send(hop(b, b, 0));
      if (msg.from == a && msg.to == b && msg.body == bytes &&
          msg.wire_seq == 1) {
        ++intact;
      }
    });
    net->send(Message{a, b, payload, MsgKind::Request, {},
                      serial::Buffer(std::vector<std::uint8_t>(bytes))});
    if (sharded) {
      ssim.run_until_idle(2);
    } else {
      sim.run_until_idle();
    }
    EXPECT_EQ(intact, 1);
    EXPECT_EQ(loopbacks, 40);
    EXPECT_EQ(net->messages_held(), 0u);
  }
}

// A network destroyed with deliveries still queued (in slots and in a
// mailbox column) destroys their messages with it: the ASan lane's leak
// check holds this.  The queued events must then never run.
TEST(MessageSlots, DestroyedNetworkFreesQueuedMessages) {
  CostModel m = CostModel::zero();
  m.propagation_us = 100;
  sim::Simulation sim{5};
  sim::ShardedSim ssim(2, 5, Network::min_link_latency(m));
  const serial::Buffer shared(std::vector<std::uint8_t>(100, 1));
  for (const bool sharded : {false, true}) {
    auto net = sharded ? std::make_unique<Network>(ssim, m)
                       : std::make_unique<Network>(sim, m);
    const auto a = net->add_node("a");
    const auto b = net->add_node("b");
    for (int i = 0; i < 20; ++i) {
      net->send(Message{a, b, common::intern_verb("q"), MsgKind::Request, {},
                        serial::Buffer(std::vector<std::uint8_t>(64, 2))});
      net->send(Message{a, a, common::intern_verb("q"), MsgKind::Request, {},
                        shared});
    }
    EXPECT_EQ(net->messages_held(), 40u);
  }
}

// --- cost model presets -----------------------------------------------------

TEST(CostModel, WireTimeMath) {
  CostModel m;
  m.bytes_per_usec = 1.25;  // 10 Mb/s
  EXPECT_EQ(m.wire_time(1250), 1000);
}

TEST(CostModel, MarshalTimeMath) {
  CostModel m;
  m.marshal_us_per_byte = 2.0;
  EXPECT_EQ(m.marshal_time(100), 200);
}

TEST(CostModel, ClassicPresetIsTenMbit) {
  const auto m = CostModel::jdk122_classic();
  EXPECT_DOUBLE_EQ(m.bytes_per_usec, 1.25);
  EXPECT_GT(m.rmi_client_overhead_us, 1000);
  EXPECT_GT(m.engine_warmup_us, 10'000);
}

TEST(CostModel, ModernPresetIsMuchFaster) {
  const auto classic = CostModel::jdk122_classic();
  const auto modern = CostModel::modern_lan();
  EXPECT_LT(modern.rmi_client_overhead_us, classic.rmi_client_overhead_us);
  EXPECT_GT(modern.bytes_per_usec, classic.bytes_per_usec);
}

}  // namespace
}  // namespace mage::net
