// Crash-fault tests and tooling tests: node-down semantics, trace charts,
// agent missions, and assorted adversarial edges (forward cycles, envelope
// fuzz, in-transit lookups).
#include <gtest/gtest.h>

#include "net/trace_chart.hpp"
#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using core::AgentMission;
using core::Cle;
using testing::make_logic_system;

// --- node crashes ---------------------------------------------------------------

struct CrashFixture : ::testing::Test {
  std::unique_ptr<MageSystem> system = make_logic_system(3);
  common::NodeId n1{1}, n2{2}, n3{3};
};

TEST_F(CrashFixture, InvokingACrashedHostTimesOut) {
  system->client(n2).create_component("obj", "Counter");
  system->network().set_node_down(n2, true);
  common::NodeId cloc = n2;
  EXPECT_THROW((void)system->client(n1).invoke<std::int64_t>(cloc, "obj",
                                                             "increment"),
               common::MageError);
}

TEST_F(CrashFixture, RestartRestoresService) {
  system->client(n2).create_component("obj", "Counter");
  system->network().set_node_down(n2, true);
  common::NodeId cloc = n2;
  EXPECT_THROW((void)system->client(n1).invoke<std::int64_t>(cloc, "obj",
                                                             "increment"),
               common::MageError);
  system->network().set_node_down(n2, false);
  cloc = n2;
  // MAGE objects are not replicated: the object survived because the node
  // "rebooted" with its memory intact in this simulation; the point is the
  // transport recovers cleanly.
  EXPECT_EQ(system->client(n1).invoke<std::int64_t>(cloc, "obj", "increment"),
            1);
}

TEST_F(CrashFixture, CrashMidTransferDoesNotDuplicateTheObject) {
  system->client(n1).create_component("obj", "Counter");
  // Crash the destination; the move fails; the object must still be at n1
  // and exactly one copy must exist.
  system->network().set_node_down(n2, true);
  EXPECT_THROW(system->client(n1).transfer_out("obj", n2),
               common::MageError);
  int copies = 0;
  for (auto node : system->nodes()) {
    if (system->server(node).registry().has_local("obj")) ++copies;
  }
  EXPECT_EQ(copies, 1);
  EXPECT_TRUE(system->client(n1).has_local("obj"));
}

TEST_F(CrashFixture, LookupThroughCrashedChainFails) {
  auto& c1 = system->client(n1);
  c1.create_component("obj", "Counter", /*is_public=*/true);
  c1.move("obj", n2);
  system->client(n2).move("obj", n3);
  // n2 holds the middle of the chain; kill it and drop n1's shortcut so the
  // walk must go through the dead node.
  system->server(n1).registry().update_forward("obj", n2);
  system->network().set_node_down(n2, true);
  EXPECT_THROW((void)c1.find("obj"), common::MageError);
}

TEST_F(CrashFixture, NodeDownFlagQueryable) {
  EXPECT_FALSE(system->network().node_down(n1));
  system->network().set_node_down(n1, true);
  EXPECT_TRUE(system->network().node_down(n1));
}

// --- scheduled crash/restart (one Simulation) ------------------------------
//
// Mirrors the chaos harness's crash/restart program on the single-queue
// engine: a call issued INTO the outage must ride its retransmissions
// through the restart and execute exactly once — the sharded chaos tests
// assert the same property at every worker count.

TEST_F(CrashFixture, ScheduledCrashRestartRecoversInFlightCalls) {
  system->client(n2).create_component("obj", "Counter");
  auto& sim = system->simulation();

  net::FaultSchedule schedule;
  schedule.crash_for(sim.now() + 100, n2, 400'000);  // down for 400 ms
  system->network().set_fault_schedule(std::move(schedule));
  sim.run_for(200);
  EXPECT_TRUE(system->network().node_down(n2));

  // Issued while n2 is down; completes only after the scheduled restart.
  common::NodeId cloc = n2;
  EXPECT_EQ(system->client(n1).invoke<std::int64_t>(cloc, "obj", "increment"),
            1);
  EXPECT_GE(sim.now(), 400'000);
  EXPECT_FALSE(system->network().node_down(n2));
  EXPECT_EQ(system->network().pending_fault_events(), 0u);
  EXPECT_GT(system->stats().counter("rmi.retransmissions"), 0);
  EXPECT_GT(system->stats().counter("net.messages_dropped_by_schedule"), 0);
  // Exactly one execution despite every dropped/retransmitted copy.
  cloc = n2;
  EXPECT_EQ(system->client(n1).invoke<std::int64_t>(cloc, "obj", "get"), 1);
}

TEST_F(CrashFixture, ScheduledCrashOutlastingRetriesFailsCleanly) {
  system->client(n2).create_component("obj", "Counter");
  auto& sim = system->simulation();

  // Down for longer than the whole retry budget (24 x 150 ms): the caller
  // gets a clean transport error, and a fresh call after the scheduled
  // restart succeeds — the object survived the simulated reboot.
  net::FaultSchedule schedule;
  schedule.crash_for(sim.now() + 100, n2, 5'000'000);
  system->network().set_fault_schedule(std::move(schedule));
  sim.run_for(200);

  common::NodeId cloc = n2;
  EXPECT_THROW((void)system->client(n1).invoke<std::int64_t>(cloc, "obj",
                                                             "increment"),
               common::MageError);
  sim.run_for(6'000'000);  // ride past the scheduled restart
  EXPECT_FALSE(system->network().node_down(n2));
  cloc = n2;
  EXPECT_EQ(system->client(n1).invoke<std::int64_t>(cloc, "obj", "increment"),
            1);
}

// --- agent missions -----------------------------------------------------------------

TEST(Mission, VisitsEveryStopAndAccumulates) {
  auto system = make_logic_system(4);
  auto& client = system->client(common::NodeId{1});
  client.create_component("gatherer", "Counter");

  AgentMission mission(client, "gatherer",
                       {common::NodeId{2}, common::NodeId{3},
                        common::NodeId{4}},
                       "increment");
  auto stops = mission.run();
  ASSERT_EQ(stops.size(), 3u);
  // The counter travels with the agent: one increment per stop.
  EXPECT_EQ(AgentMission::result_of<std::int64_t>(stops[0]), 1);
  EXPECT_EQ(AgentMission::result_of<std::int64_t>(stops[1]), 2);
  EXPECT_EQ(AgentMission::result_of<std::int64_t>(stops[2]), 3);
  EXPECT_EQ(stops[0].node, common::NodeId{2});
  EXPECT_EQ(stops[2].node, common::NodeId{4});
}

TEST(Mission, ArgumentsReachEveryStop) {
  auto system = make_logic_system(3);
  auto& client = system->client(common::NodeId{1});
  client.create_component("adder", "Counter");
  AgentMission mission(client, "adder",
                       {common::NodeId{2}, common::NodeId{3}}, "add");
  auto stops = mission.run(std::int64_t{10});
  EXPECT_EQ(AgentMission::result_of<std::int64_t>(stops[0]), 10);
  EXPECT_EQ(AgentMission::result_of<std::int64_t>(stops[1]), 20);
}

TEST(Mission, AgentEndsAtLastStop) {
  auto system = make_logic_system(3);
  auto& client = system->client(common::NodeId{1});
  client.create_component("roamer", "Counter");
  AgentMission mission(client, "roamer",
                       {common::NodeId{2}, common::NodeId{3}}, "increment");
  (void)mission.run();
  EXPECT_TRUE(
      system->server(common::NodeId{3}).registry().has_local("roamer"));
}

// --- trace chart -----------------------------------------------------------------------

TEST(TraceChart, RendersArrowsBetweenLifelines) {
  auto system = make_logic_system(2);
  system->network().set_tracing(true);
  system->client(common::NodeId{1}).create_component("obj", "Counter");
  system->client(common::NodeId{1}).move("obj", common::NodeId{2});

  const auto chart = net::render_sequence_chart(
      system->network(), system->network().trace(),
      {common::NodeId{1}, common::NodeId{2}});
  EXPECT_NE(chart.find("n1"), std::string::npos);
  EXPECT_NE(chart.find("n2"), std::string::npos);
  EXPECT_NE(chart.find(">"), std::string::npos);
  EXPECT_NE(chart.find("transfer"), std::string::npos);
}

TEST(TraceChart, MarksDrops) {
  auto system = make_logic_system(2);
  system->network().set_tracing(true);
  system->network().set_partitioned(common::NodeId{1}, common::NodeId{2},
                                    true);
  net::Message msg{common::NodeId{1},      common::NodeId{2},
                   common::intern_verb("doomed"), net::MsgKind::Request,
                   {},                      {}};
  system->network().send(msg);
  const auto chart = net::render_sequence_chart(
      system->network(), system->network().trace(),
      {common::NodeId{1}, common::NodeId{2}});
  EXPECT_NE(chart.find("LOST"), std::string::npos);
}

TEST(TraceChart, CanFilterReplies) {
  auto system = make_logic_system(2);
  system->network().set_tracing(true);
  system->client(common::NodeId{2}).create_component("obj", "Counter");
  common::NodeId cloc{2};
  (void)system->client(common::NodeId{1})
      .invoke<std::int64_t>(cloc, "obj", "increment");
  net::TraceChartOptions options;
  options.include_replies = false;
  const auto chart = net::render_sequence_chart(
      system->network(), system->network().trace(),
      {common::NodeId{1}, common::NodeId{2}}, options);
  EXPECT_EQ(chart.find(".reply"), std::string::npos);
}

// --- adversarial edges ---------------------------------------------------------------------

TEST(Adversarial, ForwardCycleIsDetected) {
  auto system = make_logic_system(3);
  const common::NodeId n1{1}, n2{2}, n3{3};
  // Manufacture a corrupt forwarding cycle: n2 -> n3 -> n2 with no object
  // anywhere, reachable from n1's directory knowledge.
  system->client(n1).create_component("ghost", "Counter",
                                      /*is_public=*/true);
  auto departed = system->server(n1).registry().unbind("ghost");
  departed.reset();
  system->server(n1).registry().update_forward("ghost", n2);
  system->server(n2).registry().update_forward("ghost", n3);
  system->server(n3).registry().update_forward("ghost", n2);
  EXPECT_THROW((void)system->client(n1).find("ghost"),
               common::NotFoundError);
}

TEST(Adversarial, EnvelopeFuzzNeverCrashes) {
  common::Rng rng(2024);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    try {
      auto env = rmi::Envelope::decode(serial::Buffer(std::move(junk)));
      (void)env;
    } catch (const common::SerializationError&) {
      // Expected for most inputs; anything else would fail the test.
    }
  }
  SUCCEED();
}

// A decoder may return or throw SerializationError; anything else (a
// crash, std::bad_alloc from a wire-declared count) fails the test.
template <typename M>
void decode_or_reject(const serial::Buffer& bytes) {
  try {
    (void)M::decode(bytes);
  } catch (const common::SerializationError&) {
  }
}

template <typename... Messages>
void decode_as_each(const serial::Buffer& bytes) {
  (decode_or_reject<Messages>(bytes), ...);
}

void decode_as_every_message(const serial::Buffer& bytes) {
  using namespace proto;
  decode_as_each<LookupRequest, LookupReply, ClassCheckRequest,
                 ClassCheckReply, FetchClassRequest, ClassImage,
                 LoadClassRequest, InstantiateRequest, SimpleReply,
                 MoveRequest, TransferRequest, InvokeRequest, InvokeReply,
                 FetchResultRequest, LockRequest, LockReply, UnlockRequest,
                 StaticGetRequest, StaticPutRequest, ExecRequest,
                 DiscoverRequest, DiscoverReply, VoteRequest, VoteReply,
                 HeartbeatRequest, HeartbeatReply, DirAnnounceRequest,
                 DirAnnounceReply, DirResolveRequest, DirResolveReply,
                 ManifestRequest, ManifestReply, LoadReply>(bytes);
}

TEST(Adversarial, ProtocolBodyFuzzNeverCrashes) {
  // Leading u32s that declare a huge string, list or filler.
  decode_as_every_message(serial::Buffer{0xff, 0xff, 0xff, 0xff});
  decode_as_every_message(serial::Buffer{0xff, 0xff, 0xff, 0x0f});
  common::Rng rng(7777);
  for (int round = 0; round < 1000; ++round) {
    std::vector<std::uint8_t> junk(rng.next_below(48));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    decode_as_every_message(serial::Buffer(std::move(junk)));
  }
  SUCCEED();
}

TEST(Adversarial, ListCountBeyondTheBodyIsRejected) {
  // Each manifest entry takes at least 12 bytes (an empty name and an
  // epoch), so a count the remaining bytes cannot hold is rejected before
  // anything is reserved.
  for (const serial::Buffer& body :
       {serial::Buffer{0xff, 0xff, 0xff, 0xff},
        serial::Buffer{0xff, 0xff, 0xff, 0x0f},
        serial::Buffer{0x02, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}}) {
    EXPECT_THROW((void)proto::ManifestReply::decode(body),
                 common::SerializationError);
  }
  const auto one = proto::ManifestReply::decode(
      serial::Buffer{0x01, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0});
  ASSERT_EQ(one.entries.size(), 1u);
  EXPECT_EQ(one.entries[0].second, 9u);
}

TEST(Adversarial, LookupDuringTransitEventuallyConverges) {
  auto system = make_logic_system(3);
  const common::NodeId n1{1}, n2{2}, n3{3};
  system->client(n1).create_component("obj", "Counter", /*is_public=*/true);

  // Start a move n1 -> n2 asynchronously (raw protocol, no sync wait).
  proto::MoveRequest request;
  request.name = "obj";
  request.to = n2;
  bool move_done = false;
  system->transport(n3).call(
      n1, proto::verbs::kMove, request.encode(),
      [&move_done](rmi::CallResult) { move_done = true; });

  // Wait until the object is genuinely mid-flight, then look it up from a
  // third party; the client-side chase follows the in-transit hint and
  // retries until the object lands.
  ASSERT_TRUE(system->simulation().run_until(
      [&] { return system->server(n1).in_transit("obj"); }));
  EXPECT_EQ(system->client(n3).find("obj"), n2);
  system->simulation().run_until([&move_done] { return move_done; });
}

TEST(Adversarial, ConcurrentMovesNeverCloneTheObject) {
  auto system = make_logic_system(4);
  const common::NodeId n1{1};
  system->client(n1).create_component("obj", "Counter", /*is_public=*/true);

  // Fire two conflicting move requests at the host back to back (no lock
  // bracket — the structural guarantee must hold anyway).
  for (auto to : {common::NodeId{2}, common::NodeId{3}}) {
    proto::MoveRequest request;
    request.name = "obj";
    request.to = to;
    system->transport(common::NodeId{4})
        .call(n1, proto::verbs::kMove, request.encode(),
              [](rmi::CallResult) {});
  }
  system->simulation().run_until_idle();

  int copies = 0;
  for (auto node : system->nodes()) {
    if (system->server(node).registry().has_local("obj")) ++copies;
  }
  EXPECT_EQ(copies, 1);
}

}  // namespace
}  // namespace mage::rts
