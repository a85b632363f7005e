// Property-style tests: randomized operation sequences checked against the
// system's core invariants.
//
//   I1  Singleton: at every quiescent point an object has exactly one live
//       copy in the federation.
//   I2  Durability: object state equals the state implied by the applied
//       operations (no lost or duplicated increments), across any number of
//       migrations and any loss rate the protocols tolerate.
//   I3  Reachability: find() converges to the live copy from any node.
//   I4  Determinism: a seed fully determines the run (stats fingerprint).
#include <gtest/gtest.h>

#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::make_logic_system;

struct Scenario {
  int nodes;
  int operations;
  double loss_rate;
  std::uint64_t seed;
};

class RandomWalk : public ::testing::TestWithParam<Scenario> {};

TEST_P(RandomWalk, InvariantsHoldThroughRandomOps) {
  const auto& scenario = GetParam();
  auto system = make_logic_system(scenario.nodes, scenario.seed);
  system->network().set_loss_rate(scenario.loss_rate);
  common::Rng rng(scenario.seed);

  const common::NodeId home{1};
  system->client(home).create_component("obj", "Counter", true);

  std::int64_t expected = 0;
  for (int op = 0; op < scenario.operations; ++op) {
    const common::NodeId actor{
        static_cast<std::uint32_t>(rng.next_below(scenario.nodes) + 1)};
    auto& client = system->client(actor);
    switch (rng.next_below(3)) {
      case 0: {  // migrate to a random node
        const common::NodeId to{
            static_cast<std::uint32_t>(rng.next_below(scenario.nodes) + 1)};
        client.move("obj", to);
        break;
      }
      case 1: {  // invoke
        common::NodeId cloc = common::kNoNode;
        EXPECT_EQ(client.invoke<std::int64_t>(cloc, "obj", "increment"),
                  ++expected);
        break;
      }
      case 2: {  // find from a random vantage point
        EXPECT_NO_THROW((void)client.find("obj"));
        break;
      }
    }

    // I1: exactly one live copy at every quiescent point.
    int copies = 0;
    for (auto node : system->nodes()) {
      if (system->server(node).registry().has_local("obj")) ++copies;
    }
    ASSERT_EQ(copies, 1) << "op " << op;
  }

  // I2 + I3: final state is exact and reachable from every node.
  for (auto node : system->nodes()) {
    common::NodeId cloc = common::kNoNode;
    EXPECT_EQ(
        system->client(node).invoke<std::int64_t>(cloc, "obj", "get"),
        expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, RandomWalk,
    ::testing::Values(Scenario{2, 40, 0.0, 1}, Scenario{3, 40, 0.0, 2},
                      Scenario{5, 60, 0.0, 3}, Scenario{8, 60, 0.0, 4},
                      Scenario{3, 40, 0.15, 5}, Scenario{5, 50, 0.25, 6},
                      Scenario{4, 30, 0.35, 7}, Scenario{6, 80, 0.1, 8}));

// I4: the same seed produces byte-identical behaviour; different seeds
// diverge.  (Determinism is what makes every other test in this repo
// reproducible.)
TEST(Determinism, SameSeedSameFingerprint) {
  auto fingerprint = [](std::uint64_t seed) {
    auto system = make_logic_system(4, seed);
    system->network().set_loss_rate(0.2);
    system->client(common::NodeId{1}).create_component("obj", "Counter",
                                                       true);
    common::Rng rng(seed);
    for (int op = 0; op < 30; ++op) {
      const common::NodeId to{
          static_cast<std::uint32_t>(rng.next_below(4) + 1)};
      system
          ->client(common::NodeId{static_cast<std::uint32_t>(op % 4 + 1)})
          .move("obj", to);
    }
    return std::make_tuple(system->simulation().now(),
                           system->stats().counter("net.messages_sent"),
                           system->stats().counter("rmi.retransmissions"),
                           system->stats().counter("rts.migrations"));
  };
  EXPECT_EQ(fingerprint(42), fingerprint(42));
  EXPECT_NE(fingerprint(42), fingerprint(43));
}

// Multiple independent objects migrate concurrently without interference.
class MultiObject : public ::testing::TestWithParam<int> {};

TEST_P(MultiObject, IndependentObjectsKeepIndependentState) {
  const int object_count = GetParam();
  auto system = make_logic_system(4, 99 + object_count);
  common::Rng rng(99 + object_count);

  for (int i = 0; i < object_count; ++i) {
    system->client(common::NodeId{1})
        .create_component("obj" + std::to_string(i), "Counter", true);
  }
  std::vector<std::int64_t> expected(object_count, 0);

  for (int op = 0; op < 25 * object_count; ++op) {
    const int which = static_cast<int>(rng.next_below(object_count));
    const std::string name = "obj" + std::to_string(which);
    auto& client = system->client(
        common::NodeId{static_cast<std::uint32_t>(rng.next_below(4) + 1)});
    if (rng.next_bool(0.5)) {
      client.move(name, common::NodeId{static_cast<std::uint32_t>(
                            rng.next_below(4) + 1)});
    } else {
      common::NodeId cloc = common::kNoNode;
      client.invoke<std::int64_t>(cloc, name, "increment");
      ++expected[which];
    }
  }

  for (int i = 0; i < object_count; ++i) {
    common::NodeId cloc = common::kNoNode;
    EXPECT_EQ(system->client(common::NodeId{1})
                  .invoke<std::int64_t>(cloc, "obj" + std::to_string(i),
                                        "get"),
              expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, MultiObject, ::testing::Values(1, 2, 4, 8));

// Serialization round trip through real migration preserves rich state for
// randomly generated notebooks.
class NotebookFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NotebookFuzz, RandomStateSurvivesMigrationChain) {
  auto system = make_logic_system(4, GetParam());
  common::Rng rng(GetParam());
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("nb", "Notebook");

  common::NodeId cloc = common::NodeId{1};
  const int entries = 1 + static_cast<int>(rng.next_below(30));
  std::vector<std::string> expected;
  for (int i = 0; i < entries; ++i) {
    std::string entry;
    const auto length = rng.next_below(64);
    for (std::uint64_t j = 0; j < length; ++j) {
      entry.push_back(static_cast<char>('a' + rng.next_below(26)));
    }
    expected.push_back(entry);
    c1.invoke<serial::Unit>(cloc, "nb", "append", entry);
  }

  // Drag it around the federation.
  for (int hop = 0; hop < 6; ++hop) {
    const common::NodeId to{static_cast<std::uint32_t>(rng.next_below(4) +
                                                       1)};
    c1.move("nb", to);
    cloc = to;
  }

  EXPECT_EQ(c1.invoke<std::int64_t>(cloc, "nb", "size"),
            static_cast<std::int64_t>(expected.size()));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(c1.invoke<std::string>(cloc, "nb", "entry",
                                     static_cast<std::int64_t>(i)),
              expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NotebookFuzz, ::testing::Range(100, 108));

// The forwarding chain always collapses: after any migration history, one
// find from each node leaves every visited registry pointing directly at
// the live host.
class ChainCollapse : public ::testing::TestWithParam<int> {};

TEST_P(ChainCollapse, AllForwardsPointAtLiveHostAfterFind) {
  const int hops = GetParam();
  auto system = make_logic_system(6, 77 + hops);
  common::Rng rng(77 + hops);
  system->client(common::NodeId{1}).create_component("obj", "Counter", true);

  common::NodeId at{1};
  for (int i = 0; i < hops; ++i) {
    common::NodeId to{static_cast<std::uint32_t>(rng.next_below(6) + 1)};
    system->client(at).move("obj", to);
    at = to;
  }

  for (auto node : system->nodes()) {
    EXPECT_EQ(system->client(node).find("obj"), at);
  }
  for (auto node : system->nodes()) {
    const auto fwd = system->server(node).registry().forward("obj");
    if (system->server(node).registry().has_local("obj")) {
      EXPECT_FALSE(fwd.has_value());
    } else if (fwd.has_value()) {
      EXPECT_EQ(*fwd, at) << "stale forward at node " << node.value();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HopCounts, ChainCollapse,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace mage::rts
