// MageClient API edge cases and misuse handling.
#include <gtest/gtest.h>

#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::Counter;
using testing::make_logic_system;

struct ClientApiFixture : ::testing::Test {
  std::unique_ptr<MageSystem> system = make_logic_system(3);
  common::NodeId n1{1}, n2{2}, n3{3};
};

TEST_F(ClientApiFixture, CreateComponentOverwritesBinding) {
  auto& client = system->client(n1);
  auto& first = dynamic_cast<Counter&>(
      client.create_component("obj", "Counter"));
  first.set(5);
  auto& second = dynamic_cast<Counter&>(
      client.create_component("obj", "Counter"));
  EXPECT_EQ(second.get(), 0);  // a fresh object replaced the old binding
}

TEST_F(ClientApiFixture, LocalObjectThrowsWhenAbsent) {
  EXPECT_THROW((void)system->client(n1).local_object("nothing"),
               common::NotFoundError);
}

TEST_F(ClientApiFixture, InvokeUnknownComponentThrows) {
  common::NodeId cloc = common::kNoNode;
  EXPECT_THROW((void)system->client(n1).invoke<std::int64_t>(
                   cloc, "ghost", "increment"),
               common::NotFoundError);
}

TEST_F(ClientApiFixture, InvokeWithWrongArgumentTypeFails) {
  auto& client = system->client(n1);
  client.create_component("obj", "Counter");
  client.move("obj", n2);
  common::NodeId cloc = n2;
  // "add" expects an i64; sending a string makes the remote unmarshalling
  // blow up, which must surface as a remote error, not a crash.
  EXPECT_THROW((void)client.invoke<std::int64_t>(cloc, "obj", "add",
                                                 std::string("oops")),
               common::MageError);
}

TEST_F(ClientApiFixture, InvokeOnewayOnLocalObjectParksResult) {
  auto& client = system->client(n1);
  client.create_component("obj", "Counter");
  common::NodeId cloc = n1;
  client.invoke_oneway(cloc, "obj", "add", std::int64_t{3});
  EXPECT_EQ(client.fetch_result<std::int64_t>(cloc, "obj"), 3);
}

TEST_F(ClientApiFixture, MoveUnknownComponentThrows) {
  EXPECT_THROW(system->client(n1).move("ghost", n2),
               common::NotFoundError);
}

TEST_F(ClientApiFixture, ChargeAdvancesSimulatedTime) {
  auto& client = system->client(n1);
  const auto t0 = system->simulation().now();
  client.charge(common::msec(7));
  EXPECT_EQ(system->simulation().now() - t0, common::msec(7));
  client.charge(0);
  client.charge(-5);  // non-positive charges are no-ops
  EXPECT_EQ(system->simulation().now() - t0, common::msec(7));
}

TEST_F(ClientApiFixture, HasLocalFalseDuringTransit) {
  auto& client = system->client(n1);
  client.create_component("obj", "Counter");
  bool done = false;
  proto::MoveRequest request;
  request.name = "obj";
  request.to = n2;
  system->transport(n3).call(n1, proto::verbs::kMove, request.encode(),
                             [&done](rmi::CallResult) { done = true; });
  ASSERT_TRUE(system->simulation().run_until(
      [&] { return system->server(n1).in_transit("obj"); }));
  EXPECT_FALSE(client.has_local("obj"));
  system->simulation().run_until([&done] { return done; });
}

TEST_F(ClientApiFixture, EnsureClassAtUnknownClassThrows) {
  EXPECT_THROW(system->client(n1).ensure_class_at(n2, "Mystery"),
               common::MageError);
}

TEST_F(ClientApiFixture, FetchClassFromNodeWithoutItThrows) {
  // n2 never installed Counter, so the pull must fail cleanly.
  EXPECT_THROW(system->client(n1).fetch_class_to_local(n2, "Counter"),
               common::MageError);
}

TEST_F(ClientApiFixture, RebindAfterObjectRecreation) {
  auto& client = system->client(n1);
  client.create_component("obj", "Counter");
  client.move("obj", n2);
  // The origin recreates the component locally (a new epoch); stale
  // handles chasing the old forward still converge on *some* live copy.
  client.create_component("obj", "Counter");
  common::NodeId cloc = n1;
  EXPECT_EQ(client.invoke<std::int64_t>(cloc, "obj", "increment"), 1);
}

TEST_F(ClientApiFixture, DistinctActivitiesHaveDistinctIds) {
  EXPECT_NE(system->client(n1).activity(), system->client(n2).activity());
}

TEST_F(ClientApiFixture, HandleSurvivesAttributeDestruction) {
  auto& client = system->client(n1);
  client.create_component("obj", "Counter");
  core::RemoteHandle handle;
  {
    core::Rev rev(client, "obj", n2);
    handle = rev.bind();
  }  // attribute gone; the stub must keep working
  EXPECT_EQ(handle.invoke<std::int64_t>("increment"), 1);
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.name(), "obj");
}

// The AsyncClientTest.ChaseRetriesPastStaleMovedHintUntilChainCatchesUp
// scenario through the blocking client: n4's fence (epoch 3) outran the
// static home's forwarding entry (n2 @ epoch 2), so the fenced lookup at
// n1 dead-ends and only the chase's unfenced walk reaches the binding.
TEST(ClientChase, FindWalksPastAFenceThatOutranTheChain) {
  auto system = make_logic_system(4);
  const common::NodeId n1{1}, n2{2}, n3{3}, n4{4};
  system->client(n1).create_component("obj", "Counter", /*is_public=*/true);
  system->client(n1).move("obj", n2);
  system->client(n2).move("obj", n3);
  const std::uint64_t fresh_epoch = system->client(n2).known_epoch("obj");
  ASSERT_EQ(fresh_epoch, 3u);

  auto& chaser = system->client(n4);
  chaser.note_epoch("obj", fresh_epoch);
  common::NodeId cloc = common::kNoNode;
  EXPECT_EQ(chaser.invoke<std::int64_t>(cloc, "obj", "increment"), 1);
  EXPECT_EQ(cloc, n3);
  EXPECT_GE(system->stats().counter("rts.unfenced_walks"), 1);
}

TEST_F(ClientApiFixture, DefaultHandleIsInvalid) {
  core::RemoteHandle handle;
  EXPECT_FALSE(handle.valid());
}

}  // namespace
}  // namespace mage::rts
