// Integration tests for the MAGE runtime: registry lookup with forwarding
// chains and path collapsing, object migration, class shipping, one-way
// invocation, engine warm-up, in-transit redirection, and one weak
// migration for local and remote sources (epochs, racing invokes).
#include <gtest/gtest.h>

#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::Counter;
using testing::make_classic_system;
using testing::make_logic_system;

TEST(System, BootAndDescribe) {
  auto system = make_logic_system(3);
  EXPECT_EQ(system->nodes().size(), 3u);
  const auto text = system->describe();
  EXPECT_NE(text.find("3 namespaces"), std::string::npos);
}

TEST(System, CreateComponentBindsLocallyAndAnnounces) {
  auto system = make_logic_system(2);
  auto& client = system->client(common::NodeId{1});
  client.create_component("counter", "Counter");
  EXPECT_TRUE(client.has_local("counter"));
  EXPECT_TRUE(system->directory().contains("counter"));
  EXPECT_EQ(system->directory().info("counter").home, common::NodeId{1});
  EXPECT_FALSE(client.is_shared("counter"));
}

TEST(System, PublicComponentIsShared) {
  auto system = make_logic_system(2);
  auto& client = system->client(common::NodeId{1});
  client.create_component("shared", "Counter", /*is_public=*/true);
  EXPECT_TRUE(client.is_shared("shared"));
}

TEST(System, FindLocalObject) {
  auto system = make_logic_system(2);
  auto& client = system->client(common::NodeId{1});
  client.create_component("counter", "Counter");
  EXPECT_EQ(client.find("counter"), common::NodeId{1});
}

// Every per-node call checks the id: a node off the system throws, naming
// it, instead of indexing out of bounds.
TEST(System, PerNodeCallsRejectNodesOffTheSystem) {
  auto system = make_logic_system(3);
  const common::NodeId absent{99};
  EXPECT_THROW((void)system->server(absent), common::MageError);
  EXPECT_THROW((void)system->client(absent), common::MageError);
  EXPECT_THROW((void)system->transport(absent), common::MageError);
  EXPECT_THROW(system->install_class(absent, "Counter"), common::MageError);
  EXPECT_THROW(system->assign_domain(absent, "d"), common::MageError);
  try {
    (void)system->server(absent);
    FAIL() << "server(node 99) on a 3-node system returned";
  } catch (const common::MageError& e) {
    EXPECT_STREQ(e.what(),
                 "server: node 99 is not on this network (it has 3 nodes)");
  }
}

TEST(System, FindUnknownThrows) {
  auto system = make_logic_system(2);
  auto& client = system->client(common::NodeId{1});
  EXPECT_THROW((void)client.find("ghost"), common::NotFoundError);
}

TEST(System, MoveAndFindFromAnotherNode) {
  auto system = make_logic_system(3);
  const common::NodeId n1{1}, n2{2}, n3{3};
  auto& c1 = system->client(n1);
  c1.create_component("counter", "Counter");
  EXPECT_EQ(c1.move("counter", n2), n2);
  EXPECT_FALSE(c1.has_local("counter"));
  EXPECT_TRUE(system->server(n2).registry().has_local("counter"));

  // A third party that has never heard of the object finds it via the
  // directory home + forwarding chain.
  auto& c3 = system->client(n3);
  EXPECT_EQ(c3.find("counter"), n2);
}

TEST(System, LocalInvocationFastPath) {
  auto system = make_logic_system(1);
  auto& client = system->client(common::NodeId{1});
  client.create_component("counter", "Counter");
  common::NodeId cloc = common::NodeId{1};
  EXPECT_EQ(client.invoke<std::int64_t>(cloc, "counter", "increment"), 1);
  EXPECT_EQ(system->stats().counter("rts.local_invocations"), 1);
  EXPECT_EQ(system->stats().counter("rts.invocations"), 0);
}

TEST(System, RemoteInvocationCarriesArgsAndResults) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  c1.move("counter", common::NodeId{2});
  common::NodeId cloc = common::NodeId{2};
  EXPECT_EQ(c1.invoke<std::int64_t>(cloc, "counter", "add",
                                    std::int64_t{40}),
            40);
  EXPECT_EQ(c1.invoke<std::int64_t>(cloc, "counter", "add", std::int64_t{2}),
            42);
}

TEST(System, InvocationChasesMovedObject) {
  auto system = make_logic_system(3);
  const common::NodeId n2{2}, n3{3};
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  c1.move("counter", n2);
  // Another client moves it again; our stale cloc still converges.
  auto& c3 = system->client(n3);
  c3.move("counter", n3);
  common::NodeId stale = n2;
  EXPECT_EQ(c1.invoke<std::int64_t>(stale, "counter", "increment"), 1);
  EXPECT_EQ(stale, n3);  // the chase updated the caller's view
}

TEST(System, StatePersistsAcrossMigration) {
  auto system = make_logic_system(3);
  auto& client = system->client(common::NodeId{1});
  client.create_component("counter", "Counter");
  auto& counter = dynamic_cast<Counter&>(client.local_object("counter"));
  counter.set(100);
  client.move("counter", common::NodeId{2});
  common::NodeId cloc = common::NodeId{2};
  EXPECT_EQ(client.invoke<std::int64_t>(cloc, "counter", "get"), 100);
  client.move("counter", common::NodeId{3}, cloc);
  cloc = common::NodeId{3};
  EXPECT_EQ(client.invoke<std::int64_t>(cloc, "counter", "increment"), 101);
}

TEST(System, ForwardingChainCollapsesOnLookup) {
  auto system = make_logic_system(4);
  const common::NodeId n1{1}, n2{2}, n3{3}, n4{4};
  auto& c1 = system->client(n1);
  // Shared: multiple activities move it, so finds must walk the chain.
  c1.create_component("counter", "Counter", /*is_public=*/true);
  // Build a chain 1 -> 2 -> 3 -> 4 by moving via different clients so no
  // single registry learns the final location.
  c1.move("counter", n2);
  system->client(n2).move("counter", n3);
  system->client(n3).move("counter", n4);

  // Node 1's forward still points at node 2 (it only saw the first move).
  ASSERT_TRUE(system->server(n1).registry().forward("counter").has_value());
  EXPECT_EQ(*system->server(n1).registry().forward("counter"), n2);

  // A lookup from node 1 walks 1->2->3->4 and collapses every hop.
  EXPECT_EQ(c1.find("counter"), n4);
  EXPECT_EQ(*system->server(n1).registry().forward("counter"), n4);
  EXPECT_EQ(*system->server(n2).registry().forward("counter"), n4);
  EXPECT_EQ(*system->server(n3).registry().forward("counter"), n4);

  // A second lookup takes one hop instead of three.
  const auto hops_before = system->stats().counter("rts.lookup_hops");
  (void)system->client(n2).find("counter");
  const auto hops_after = system->stats().counter("rts.lookup_hops");
  EXPECT_LE(hops_after - hops_before, 1);
}

TEST(System, ClassShipsOnDemandDuringTransfer) {
  auto system = make_logic_system(2);
  const common::NodeId n1{1}, n2{2};
  auto& c1 = system->client(n1);
  c1.create_component("counter", "Counter");
  EXPECT_FALSE(system->server(n2).class_cache().has("Counter"));
  c1.move("counter", n2);
  EXPECT_TRUE(system->server(n2).class_cache().has("Counter"));
  EXPECT_GE(system->stats().counter("rts.class_loads"), 1);
}

TEST(System, SecondTransferSkipsClassFetch) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  c1.move("counter", common::NodeId{2});
  const auto fetches = system->stats().counter("rts.class_fetches");
  c1.move("counter", common::NodeId{1});
  c1.move("counter", common::NodeId{2});
  EXPECT_EQ(system->stats().counter("rts.class_fetches"), fetches);
}

TEST(System, CacheDisabledRefetchesEveryTime) {
  auto system = make_logic_system(2);
  system->server(common::NodeId{2}).class_cache().set_caching_enabled(false);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  c1.move("counter", common::NodeId{2});
  c1.move("counter", common::NodeId{1});
  const auto fetches = system->stats().counter("rts.class_fetches");
  c1.move("counter", common::NodeId{2});
  EXPECT_GT(system->stats().counter("rts.class_fetches"), fetches);
}

TEST(System, InstantiateAtRemoteFactory) {
  auto system = make_logic_system(2);
  const common::NodeId n1{1}, n2{2};
  auto& c1 = system->client(n1);
  c1.instantiate_at(n2, "Counter", "remoteCounter");
  EXPECT_TRUE(system->server(n2).registry().has_local("remoteCounter"));
  EXPECT_EQ(c1.find("remoteCounter"), n2);
  common::NodeId cloc = n2;
  EXPECT_EQ(c1.invoke<std::int64_t>(cloc, "remoteCounter", "increment"), 1);
}

TEST(System, InstantiateUnknownClassFails) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  EXPECT_THROW(c1.instantiate_at(common::NodeId{2}, "Mystery", "obj"),
               common::MageError);
}

TEST(System, TransferOutMovesDirectly) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  dynamic_cast<Counter&>(c1.local_object("counter")).set(7);
  c1.transfer_out("counter", common::NodeId{2});
  EXPECT_FALSE(c1.has_local("counter"));
  common::NodeId cloc = common::NodeId{2};
  EXPECT_EQ(c1.invoke<std::int64_t>(cloc, "counter", "get"), 7);
}

TEST(System, TransferOutRequiresLocalObject) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  EXPECT_THROW(c1.transfer_out("ghost", common::NodeId{2}),
               common::NotFoundError);
}

// Moves `name` n1 -> n2 -> n1, leaving it at n1 at placement epoch 3.
void bounce_home(MageSystem& system, const common::ComponentName& name) {
  const common::NodeId n1{1}, n2{2};
  auto& c1 = system.client(n1);
  c1.create_component(name, "Counter");
  c1.move(name, n2);
  c1.move(name, n1, n2);
  ASSERT_EQ(system.server(n1).registry().epoch_of(name), 3u);
}

// A local source migrates through the same routine as a remote one: the
// destination binds at the source's epoch + 1, and the forward left
// behind is fenced at it.
TEST(System, LocalTransferBindsAtTheNextEpoch) {
  for (const bool through_grev : {false, true}) {
    SCOPED_TRACE(through_grev ? "GREV bind" : "transfer_out");
    auto system = make_logic_system(3);
    const common::NodeId n1{1}, n3{3};
    bounce_home(*system, "counter");
    if (through_grev) {
      core::Grev grev(system->client(n1), "counter", n3);
      (void)grev.bind();
    } else {
      system->client(n1).transfer_out("counter", n3);
    }
    EXPECT_TRUE(system->server(n3).registry().has_local("counter"));
    EXPECT_EQ(system->server(n3).registry().epoch_of("counter"), 4u);
    EXPECT_EQ(system->server(n1).registry().epoch_of("counter"), 4u);
  }
}

// The hint a node leaves when the object moves on carries the epoch it
// minted, so a client that saw the earlier moves still accepts it.
TEST(System, HintsAfterALocalTransferAreNotStale) {
  auto system = make_logic_system(4);
  const common::NodeId n1{1}, n3{3}, n4{4};
  bounce_home(*system, "counter");
  auto& c1 = system->client(n1);
  c1.transfer_out("counter", n3);
  system->client(n3).move("counter", n4);
  common::NodeId cloc = n3;
  EXPECT_EQ(c1.invoke<std::int64_t>(cloc, "counter", "increment"), 1);
  EXPECT_EQ(cloc, n4);
  EXPECT_EQ(system->stats().counter("rts.stale_hints_rejected"), 0);
}

// An invoke that reaches the source while its local transfer is in flight
// is redirected, not run on the copy already serialized: it completes at
// the destination, exactly once.
TEST(System, InvokeRacingALocalTransferIsNotLost) {
  auto system = make_classic_system(3);
  const common::NodeId n1{1}, n2{2}, n3{3};
  system->client(n1).create_component("counter", "Counter",
                                      /*is_public=*/true);
  AsyncClient racer(system->server(n2));
  auto invoked = racer.invoke<std::int64_t>("counter", "increment");
  system->client(n1).transfer_out("counter", n3);
  ASSERT_TRUE(system->simulation().run_until(
      [&] { return invoked.completed(); }));
  ASSERT_TRUE(invoked.has_value()) << invoked.error();
  EXPECT_EQ(invoked.value(), 1);
  common::NodeId cloc = n3;
  EXPECT_EQ(system->client(n1).invoke<std::int64_t>(cloc, "counter", "get"),
            1);
}

TEST(System, OnewayInvocationParksResult) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  c1.move("counter", common::NodeId{2});
  common::NodeId cloc = common::NodeId{2};
  c1.invoke_oneway(cloc, "counter", "add", std::int64_t{5});
  EXPECT_EQ(c1.fetch_result<std::int64_t>(cloc, "counter"), 5);
}

TEST(System, FetchResultConsumesTheParkedValue) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  c1.move("counter", common::NodeId{2});
  common::NodeId cloc = common::NodeId{2};
  c1.invoke_oneway(cloc, "counter", "increment");
  (void)c1.fetch_result<std::int64_t>(cloc, "counter");
  EXPECT_THROW((void)c1.fetch_result<std::int64_t>(cloc, "counter"),
               common::RemoteInvocationError);
}

TEST(System, MethodExceptionPropagatesAcrossTheWire) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("grumpy", "Grumpy");
  c1.move("grumpy", common::NodeId{2});
  common::NodeId cloc = common::NodeId{2};
  try {
    (void)c1.invoke<std::int64_t>(cloc, "grumpy", "refuse");
    FAIL() << "expected RemoteInvocationError";
  } catch (const common::RemoteInvocationError& e) {
    EXPECT_NE(std::string(e.what()).find("grumpy object refuses"),
              std::string::npos);
  }
}

TEST(System, UnknownMethodPropagatesError) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  c1.move("counter", common::NodeId{2});
  common::NodeId cloc = common::NodeId{2};
  EXPECT_THROW((void)c1.invoke<std::int64_t>(cloc, "counter", "explode"),
               common::RemoteInvocationError);
}

TEST(System, MoveToSelfIsIdempotent) {
  auto system = make_logic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  EXPECT_EQ(c1.move("counter", common::NodeId{1}), common::NodeId{1});
  EXPECT_TRUE(c1.has_local("counter"));
}

TEST(System, GetLoadRemote) {
  auto system = make_logic_system(2);
  system->network().set_load(common::NodeId{2}, 73.5);
  auto& c1 = system->client(common::NodeId{1});
  EXPECT_DOUBLE_EQ(c1.load_of(common::NodeId{2}), 73.5);
  EXPECT_DOUBLE_EQ(c1.load_of(common::NodeId{1}), 0.0);
}

TEST(System, EngineWarmupChargedOncePerNode) {
  auto system = make_classic_system(2);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("counter", "Counter");
  // The first move warms both engines: node 1 handles the (loopback) move
  // request, node 2 handles the transfer.
  c1.move("counter", common::NodeId{2});
  EXPECT_EQ(system->stats().counter("rts.engine_warmups"), 2);
  c1.move("counter", common::NodeId{1});
  c1.move("counter", common::NodeId{2});
  EXPECT_EQ(system->stats().counter("rts.engine_warmups"), 2);
}

TEST(System, NotebookSurvivesMigrationWithRichState) {
  auto system = make_logic_system(3);
  auto& c1 = system->client(common::NodeId{1});
  c1.create_component("notes", "Notebook");
  common::NodeId cloc = common::NodeId{1};
  c1.invoke<serial::Unit>(cloc, "notes", "set_title",
                          std::string("field notes"));
  for (int i = 0; i < 10; ++i) {
    c1.invoke<serial::Unit>(cloc, "notes", "append",
                            "entry " + std::to_string(i));
  }
  c1.move("notes", common::NodeId{3});
  cloc = common::NodeId{3};
  EXPECT_EQ(c1.invoke<std::string>(cloc, "notes", "title"), "field notes");
  EXPECT_EQ(c1.invoke<std::int64_t>(cloc, "notes", "size"), 10);
  EXPECT_EQ(c1.invoke<std::string>(cloc, "notes", "entry", std::int64_t{7}),
            "entry 7");
}

TEST(System, PingRoundTrip) {
  auto system = make_logic_system(2);
  EXPECT_NO_THROW(system->client(common::NodeId{1}).ping(common::NodeId{2}));
}

}  // namespace
}  // namespace mage::rts
