// Distributed collections: layout hashing, DistMap/DistArray operations
// through the facade, the mage.manifest verb, mid-stream partition
// migration with client-table self-repair, and the central Rebalancer
// policy.  (The lifeline policy and chaos determinism live in
// dist_chaos_test.cpp on the sharded engine.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/directory.hpp"
#include "rts/dist/dist_array.hpp"
#include "rts/dist/dist_map.hpp"
#include "rts/dist/layout.hpp"
#include "rts/dist/rebalancer.hpp"
#include "rts/future.hpp"
#include "rts/server.hpp"
#include "sim/simulation.hpp"
#include "support/chaos_harness.hpp"

namespace mage::rts {
namespace {

using dist::DistArray;
using dist::DistMap;
using IntMap = DistMap<std::uint64_t, std::int64_t>;
using StrMap = DistMap<std::string, std::int64_t>;
using IntArray = DistArray<std::int64_t>;

// --- layout ----------------------------------------------------------------

TEST(DistLayoutTest, KeyHashIsDeterministicAndSpreads) {
  const std::uint64_t h1 = dist::key_hash(std::uint64_t{42});
  EXPECT_EQ(h1, dist::key_hash(std::uint64_t{42}));
  EXPECT_NE(h1, dist::key_hash(std::uint64_t{43}));
  EXPECT_NE(dist::key_hash(std::string("a")), dist::key_hash(std::string("b")));

  // All partitions of a small table get hit by a modest key range.
  std::set<std::size_t> hit;
  for (std::uint64_t k = 0; k < 256; ++k) hit.insert(dist::partition_of(k, 4));
  EXPECT_EQ(hit.size(), 4u);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_LT(dist::partition_of(k, 3), 3u);
  }
}

TEST(DistLayoutTest, PartitionNames) {
  EXPECT_EQ(dist::partition_name("m", 0), "m.p0");
  EXPECT_EQ(dist::partition_name("m", 11), "m.p11");
  EXPECT_EQ(dist::partition_prefix("m"), "m.p");
  EXPECT_EQ(dist::partition_name("m", 3).rfind(dist::partition_prefix("m"), 0),
            0u);
}

// --- driver-engine federation ----------------------------------------------

struct Cluster {
  explicit Cluster(int nodes, std::uint64_t seed = 42)
      : sim(seed), net(sim, testing::chaos_model()) {
    IntMap::register_class(world, "IntMapPart");
    StrMap::register_class(world, "StrMapPart");
    IntArray::register_class(world, "IntArrayPart");
    for (int i = 0; i < nodes; ++i) {
      ids.push_back(net.add_node("n" + std::to_string(i + 1)));
    }
    for (int i = 0; i < nodes; ++i) {
      transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
      servers.push_back(
          std::make_unique<MageServer>(*transports[i], world, directory));
      servers[i]->class_cache().install("IntMapPart");
      servers[i]->class_cache().install("StrMapPart");
      servers[i]->class_cache().install("IntArrayPart");
    }
  }

  // Waits for one future, returning value or error.
  template <typename T>
  T settle(MageFuture<T> future) {
    std::optional<T> value;
    std::optional<std::string> error;
    future.then([&](T& v) { value = v; }).on_error([&](const std::string& e) {
      error = e;
    });
    sim.run_until([&] { return value.has_value() || error.has_value(); });
    if (error) ADD_FAILURE() << "future failed: " << *error;
    return value.value_or(T{});
  }

  template <typename T>
  std::string settle_error(MageFuture<T> future) {
    bool done = false;
    std::string error;
    future.then([&](T&) { done = true; }).on_error([&](const std::string& e) {
      error = e;
      done = true;
    });
    sim.run_until([&] { return done; });
    return error;
  }

  sim::Simulation sim;
  net::Network net;
  ClassWorld world;
  Directory directory;
  std::vector<common::NodeId> ids;
  std::vector<std::unique_ptr<rmi::Transport>> transports;
  std::vector<std::unique_ptr<MageServer>> servers;
};

// --- DistMap ---------------------------------------------------------------

TEST(DistMapTest, KeyedOpsRouteByHash) {
  Cluster cluster(3);
  AsyncClient client(*cluster.servers[0]);
  IntMap map(client, "m", 4);
  for (std::size_t p = 0; p < 4; ++p) {
    IntMap::bind_partition(*cluster.servers[p % 3], cluster.directory,
                           "IntMapPart", "m", p);
  }

  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_TRUE(cluster.settle(map.put(k, static_cast<std::int64_t>(k * 10))));
  }
  EXPECT_EQ(cluster.settle(map.size()), 32u);
  EXPECT_EQ(cluster.settle(map.get(7)), std::optional<std::int64_t>(70));
  EXPECT_EQ(cluster.settle(map.get(99)), std::nullopt);

  // apply is a read-modify-write; exec counters track executions per key.
  EXPECT_EQ(cluster.settle(map.apply(7, 5)), 75);
  EXPECT_EQ(cluster.settle(map.apply(7, 5)), 80);
  EXPECT_EQ(cluster.settle(map.exec_count(7)), 2);

  // expand is first-write-wins: the duplicate changes nothing but the
  // dup_hits counter.
  EXPECT_EQ(cluster.settle(map.expand(1000, 1)), 1);
  EXPECT_EQ(cluster.settle(map.expand(1000, 2)), 1);
  EXPECT_EQ(cluster.settle(map.exec_count(1000)), 1);
  EXPECT_EQ(cluster.settle(map.dup_hits()), 1);

  EXPECT_TRUE(cluster.settle(map.erase(7)));
  EXPECT_FALSE(cluster.settle(map.erase(7)));
  EXPECT_EQ(cluster.settle(map.get(7)), std::nullopt);
  EXPECT_EQ(cluster.settle(map.size()), 32u);  // -7, +1000

  // reduce_plus sums across partitions: sum(k*10, k in 0..31) - 70 + 1.
  std::int64_t expected = 0;
  for (std::int64_t k = 0; k < 32; ++k) expected += k * 10;
  EXPECT_EQ(cluster.settle(map.reduce_plus()), expected - 70 + 1);
}

TEST(DistMapTest, StringKeysAndDigestPlacementIndependence) {
  // Same content, different placements: digests must match.
  auto build = [](Cluster& cluster, int spread) {
    AsyncClient client(*cluster.servers[0]);
    StrMap map(client, "s", 4);
    for (std::size_t p = 0; p < 4; ++p) {
      StrMap::bind_partition(*cluster.servers[p % spread], cluster.directory,
                             "StrMapPart", "s", p);
    }
    for (int k = 0; k < 20; ++k) {
      cluster.settle(map.put("key" + std::to_string(k), k));
    }
    return cluster.settle(map.digest());
  };
  Cluster one(3);
  Cluster spread(3);
  const std::uint64_t digest_one = build(one, 1);
  const std::uint64_t digest_spread = build(spread, 3);
  EXPECT_EQ(digest_one, digest_spread);
  EXPECT_NE(digest_one, dist::kFnvOffset);
}

TEST(DistMapTest, SurvivesPartitionMigrationMidStream) {
  Cluster cluster(3);
  AsyncClient client(*cluster.servers[0]);
  IntMap map(client, "m", 2);
  IntMap::bind_partition(*cluster.servers[0], cluster.directory, "IntMapPart",
                         "m", 0);
  IntMap::bind_partition(*cluster.servers[0], cluster.directory, "IntMapPart",
                         "m", 1);

  for (std::uint64_t k = 0; k < 16; ++k) cluster.settle(map.put(k, 1));
  ASSERT_EQ(map.table().repairs(), 0);

  // Relocate both partitions out from under the client.
  cluster.settle(client.move("m.p0", cluster.ids[1]));
  cluster.settle(client.move("m.p1", cluster.ids[2]));

  // Every key still reachable; the facade chases and the table repairs.
  for (std::uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(cluster.settle(map.get(k)), std::optional<std::int64_t>(1));
  }
  EXPECT_EQ(cluster.settle(map.size()), 16u);
  EXPECT_EQ(map.table().repairs(), 2);
  EXPECT_EQ(cluster.sim.stats().counter("rts.dist_table_repairs"), 2);

  // Routing now points at the new hosts.
  EXPECT_EQ(map.table().route(0), cluster.ids[1]);
  EXPECT_EQ(map.table().route(1), cluster.ids[2]);
}

// --- DistArray -------------------------------------------------------------

TEST(DistArrayTest, BlocksAndReductions) {
  Cluster cluster(3);
  AsyncClient client(*cluster.servers[0]);
  const std::uint64_t n = 10;
  IntArray array(client, "a", 4, n);
  for (std::size_t p = 0; p < 4; ++p) {
    IntArray::bind_partition(*cluster.servers[p % 3], cluster.directory,
                             "IntArrayPart", "a", p, 4, n);
  }

  EXPECT_EQ(cluster.settle(array.size()), n);
  EXPECT_TRUE(cluster.settle(array.fill(2)));
  EXPECT_EQ(cluster.settle(array.reduce_plus()), 20);

  EXPECT_EQ(cluster.settle(array.set(9, 7)), 2);  // returns previous value
  EXPECT_EQ(cluster.settle(array.get(9)), 7);
  EXPECT_EQ(cluster.settle(array.reduce_plus()), 25);

  // Same content, same digest, regardless of where blocks live.
  const std::uint64_t digest_before = cluster.settle(array.digest());
  cluster.settle(client.move("a.p0", cluster.ids[2]));
  EXPECT_EQ(cluster.settle(array.digest()), digest_before);

  // Out-of-range index faults client-side, before any traffic.
  EXPECT_THROW((void)array.get(n), common::MageError);
}

// --- mage.manifest ---------------------------------------------------------

TEST(ManifestTest, ListsPrefixedComponentsWithEpochs) {
  Cluster cluster(2);
  AsyncClient client(*cluster.servers[0]);
  IntMap::bind_partition(*cluster.servers[1], cluster.directory, "IntMapPart",
                         "m", 0);
  IntMap::bind_partition(*cluster.servers[1], cluster.directory, "IntMapPart",
                         "m", 1);
  IntMap::bind_partition(*cluster.servers[1], cluster.directory, "IntMapPart",
                         "other", 0);

  auto entries = cluster.settle(client.manifest(cluster.ids[1], "m.p"));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "m.p0");
  EXPECT_EQ(entries[1].first, "m.p1");

  // Moving a partition bumps its epoch; the manifest reports the registry's
  // current epoch and drops the name from the old host.
  cluster.settle(client.move("m.p0", cluster.ids[0]));
  entries = cluster.settle(client.manifest(cluster.ids[1], "m.p"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "m.p1");
  auto here = cluster.settle(client.manifest(cluster.ids[0], "m.p"));
  ASSERT_EQ(here.size(), 1u);
  EXPECT_EQ(here[0].first, "m.p0");
  EXPECT_GT(here[0].second, entries[0].second);  // moved epoch > unmoved

  // Empty prefix lists everything local.
  auto all = cluster.settle(client.manifest(cluster.ids[1], ""));
  EXPECT_EQ(all.size(), 2u);  // m.p1 + other.p0
}

// --- central Rebalancer ----------------------------------------------------

TEST(RebalancerTest, CentralPolicyMovesHotPartitionToCoolNode) {
  Cluster cluster(3);
  AsyncClient prober(*cluster.servers[0]);
  AsyncClient mover(*cluster.servers[0]);
  IntMap map(mover, "m", 4);
  for (std::size_t p = 0; p < 4; ++p) {
    IntMap::bind_partition(*cluster.servers[0], cluster.directory, "IntMapPart",
                           "m", p);
  }

  // Hand-set loads: node 0 hot, node 2 idle.
  cluster.net.set_load(cluster.ids[0], 9.0);
  cluster.net.set_load(cluster.ids[1], 4.0);
  cluster.net.set_load(cluster.ids[2], 0.0);

  dist::Rebalancer::Config config;
  config.prefix = dist::partition_prefix("m");
  config.tick_us = 5'000;
  config.max_ticks = 3;
  config.max_moves_per_tick = 1;
  dist::Rebalancer rebalancer(cluster.net, prober, mover, cluster.ids,
                              std::move(config));
  rebalancer.start();
  cluster.sim.run_until([&] { return rebalancer.ticks() >= 3; });
  // Drain the in-flight manifest/move chain from the last round.
  cluster.sim.run_for(200'000);

  EXPECT_GE(rebalancer.moves_issued(), 1);
  EXPECT_EQ(cluster.sim.stats().counter("rts.rebalance_ticks"), 3);
  EXPECT_GE(cluster.sim.stats().counter("rts.rebalance_moves"), 1);
  EXPECT_GE(cluster.sim.stats().counter("rts.migrations"), 1);
  // The stolen partition now lives on the idle node: manifest confirms.
  auto cool = cluster.settle(prober.manifest(cluster.ids[2], "m.p"));
  EXPECT_GE(cool.size(), 1u);

  // Guards: balanced loads issue no further moves.
  const std::int64_t moves = rebalancer.moves_issued();
  cluster.net.set_load(cluster.ids[0], 2.0);
  cluster.net.set_load(cluster.ids[1], 2.0);
  cluster.net.set_load(cluster.ids[2], 2.0);
  dist::Rebalancer::Config balanced;
  balanced.prefix = dist::partition_prefix("m");
  balanced.tick_us = 5'000;
  balanced.max_ticks = 2;
  dist::Rebalancer quiet(cluster.net, prober, mover, cluster.ids,
                         std::move(balanced));
  quiet.start();
  cluster.sim.run_until([&] { return quiet.ticks() >= 2; });
  cluster.sim.run_for(100'000);
  EXPECT_EQ(quiet.moves_issued(), 0);
  EXPECT_EQ(rebalancer.moves_issued(), moves);
}

}  // namespace
}  // namespace mage::rts
