// Large-federation stress and cross-feature interaction tests: many nodes,
// many shared objects, locks + migration + loss + statics all at once.
#include <gtest/gtest.h>

#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::make_logic_system;

// A 12-node federation where every node both hosts and uses components.
TEST(SystemStress, TwelveNodeChurn) {
  constexpr int kNodes = 12;
  auto system = make_logic_system(kNodes, 4242);
  common::Rng rng(4242);

  // One shared component per node.
  for (int i = 1; i <= kNodes; ++i) {
    system->client(common::NodeId{static_cast<std::uint32_t>(i)})
        .create_component("svc" + std::to_string(i), "Counter",
                          /*is_public=*/true);
  }

  std::map<std::string, std::int64_t> expected;
  for (int op = 0; op < 400; ++op) {
    const auto actor = common::NodeId{
        static_cast<std::uint32_t>(rng.next_below(kNodes) + 1)};
    const std::string name =
        "svc" + std::to_string(rng.next_below(kNodes) + 1);
    auto& client = system->client(actor);
    if (rng.next_bool(0.3)) {
      client.move(name, common::NodeId{static_cast<std::uint32_t>(
                            rng.next_below(kNodes) + 1)});
    } else {
      common::NodeId cloc = common::kNoNode;
      client.invoke<std::int64_t>(cloc, name, "increment");
      ++expected[name];
    }
  }

  // Every component: exactly one copy, exact count, findable by all.
  for (int i = 1; i <= kNodes; ++i) {
    const std::string name = "svc" + std::to_string(i);
    int copies = 0;
    for (auto node : system->nodes()) {
      if (system->server(node).registry().has_local(name)) ++copies;
    }
    ASSERT_EQ(copies, 1) << name;
    common::NodeId cloc = common::kNoNode;
    EXPECT_EQ(system->client(common::NodeId{1})
                  .invoke<std::int64_t>(cloc, name, "get"),
              expected[name])
        << name;
  }
}

// Locks + migration + message loss together: the full §4 machinery under
// adverse conditions, with application-level correctness intact.
TEST(SystemStress, LockedTransfersUnderLoss) {
  auto system = make_logic_system(4, 777);
  system->network().set_loss_rate(0.12);
  system->client(common::NodeId{1})
      .create_component("ledger", "Counter", /*is_public=*/true);

  std::int64_t expected = 0;
  for (int round = 0; round < 12; ++round) {
    const common::NodeId actor{
        static_cast<std::uint32_t>((round % 4) + 1)};
    auto& client = system->client(actor);
    auto lock = client.lock("ledger", actor);
    core::Grev grev(client, "ledger", actor);
    auto handle = grev.bind();
    (void)handle.invoke<std::int64_t>("add", std::int64_t{round});
    expected += round;
    client.unlock(lock);
  }
  common::NodeId cloc = common::kNoNode;
  EXPECT_EQ(system->client(common::NodeId{1})
                .invoke<std::int64_t>(cloc, "ledger", "get"),
            expected);
  EXPECT_GT(system->stats().counter("rmi.retransmissions"), 0);
}

// Statics under migration churn: instances fly around while class data
// stays put and exact.
TEST(SystemStress, StaticsExactUnderChurn) {
  auto system = make_logic_system(5, 999);
  system->world().set_statics_home("Counter", common::NodeId{2});
  system->client(common::NodeId{1})
      .create_component("obj", "Counter", /*is_public=*/true);
  common::Rng rng(999);

  std::int64_t writes = 0;
  for (int op = 0; op < 120; ++op) {
    auto& client = system->client(
        common::NodeId{static_cast<std::uint32_t>(rng.next_below(5) + 1)});
    if (rng.next_bool(0.5)) {
      client.move("obj", common::NodeId{static_cast<std::uint32_t>(
                             rng.next_below(5) + 1)});
    } else {
      client.static_put<std::int64_t>("Counter", "writes", ++writes);
    }
  }
  EXPECT_EQ(system->client(common::NodeId{4})
                .static_get<std::int64_t>("Counter", "writes"),
            writes);
}

// Domain + restriction + lock interplay: a component confined to one
// domain keeps its lock protocol working across migrations inside it.
TEST(SystemStress, RestrictedComponentLocksInsideDomain) {
  auto system = make_logic_system(4);
  const common::NodeId a1{1}, a2{2}, b1{3}, b2{4};
  system->assign_domain(a1, "A");
  system->assign_domain(a2, "A");
  system->assign_domain(b1, "B");
  system->assign_domain(b2, "B");
  system->client(a1).create_component("obj", "Counter", /*is_public=*/true);

  for (int round = 0; round < 6; ++round) {
    const common::NodeId target = (round % 2 == 0) ? a2 : a1;
    auto& client = system->client(target);
    auto lock = client.lock("obj", target);
    core::RestrictedAttribute attr(
        std::make_unique<core::Grev>(client, "obj", target), {a1, a2},
        {a1, a2});
    (void)attr.bind().invoke<std::int64_t>("increment");
    client.unlock(lock);
  }

  // Six increments, object still inside domain A.
  common::NodeId cloc = common::kNoNode;
  EXPECT_EQ(system->client(b1).invoke<std::int64_t>(cloc, "obj", "get"), 6);
  EXPECT_TRUE(system->server(a1).registry().has_local("obj") ||
              system->server(a2).registry().has_local("obj"));
}

// Many concurrent one-way agent invocations park distinct results.
TEST(SystemStress, ManyAgentsParkIndependentResults) {
  auto system = make_logic_system(3);
  auto& client = system->client(common::NodeId{1});
  constexpr int kAgents = 16;
  for (int i = 0; i < kAgents; ++i) {
    client.create_component("agent" + std::to_string(i), "Counter");
  }
  std::vector<core::RemoteHandle> handles;
  for (int i = 0; i < kAgents; ++i) {
    core::MAgent agent(client, "agent" + std::to_string(i),
                       common::NodeId{static_cast<std::uint32_t>(
                           (i % 2) + 2)});
    auto handle = agent.bind();
    handle.invoke_oneway("add", static_cast<std::int64_t>(i));
    handles.push_back(handle);
  }
  for (int i = 0; i < kAgents; ++i) {
    EXPECT_EQ(handles[i].fetch_result<std::int64_t>(), i);
  }
}

// Deterministic replay at federation scale.
TEST(SystemStress, LargeRunIsSeedDeterministic) {
  auto fingerprint = [](std::uint64_t seed) {
    auto system = make_logic_system(6, seed);
    system->network().set_loss_rate(0.1);
    system->client(common::NodeId{1})
        .create_component("obj", "Counter", true);
    common::Rng rng(seed);
    for (int op = 0; op < 60; ++op) {
      auto& client = system->client(common::NodeId{
          static_cast<std::uint32_t>(rng.next_below(6) + 1)});
      if (rng.next_bool(0.4)) {
        client.move("obj", common::NodeId{static_cast<std::uint32_t>(
                               rng.next_below(6) + 1)});
      } else {
        common::NodeId cloc = common::kNoNode;
        (void)client.invoke<std::int64_t>(cloc, "obj", "increment");
      }
    }
    return std::make_pair(system->simulation().now(),
                          system->stats().counter("net.bytes_sent"));
  };
  EXPECT_EQ(fingerprint(31337), fingerprint(31337));
}

}  // namespace
}  // namespace mage::rts
