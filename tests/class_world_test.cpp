// Unit tests for the class world: registration, factories, typed method
// marshalling, class caches.
#include <gtest/gtest.h>

#include "rts/class_cache.hpp"
#include "rts/class_world.hpp"
#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::Counter;
using testing::Notebook;

struct WorldFixture : ::testing::Test {
  ClassWorld world;

  WorldFixture() {
    ClassBuilder<Counter>(world, "Counter", 1024)
        .method("increment", &Counter::increment)
        .method("add", &Counter::add)
        .method("get", &Counter::get);
    ClassBuilder<Notebook>(world, "Notebook")
        .method("append", &Notebook::append)
        .method("entry", &Notebook::entry)
        .method("size", &Notebook::size);
  }
};

TEST_F(WorldFixture, ContainsAndDescriptor) {
  EXPECT_TRUE(world.contains("Counter"));
  EXPECT_FALSE(world.contains("Nope"));
  EXPECT_EQ(world.descriptor("Counter").code_size, 1024u);
  EXPECT_EQ(world.descriptor("Notebook").code_size, 2048u);  // default
}

TEST_F(WorldFixture, UnknownDescriptorThrows) {
  EXPECT_THROW((void)world.descriptor("Nope"), common::SerializationError);
}

TEST_F(WorldFixture, InstantiateUnknownClassThrows) {
  EXPECT_THROW((void)world.instantiate("Nope"), common::SerializationError);
}

TEST_F(WorldFixture, InstantiateProducesFreshObject) {
  auto a = world.instantiate("Counter");
  auto b = world.instantiate("Counter");
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(dynamic_cast<Counter&>(*a).get(), 0);
}

TEST_F(WorldFixture, DeserializeRestoresState) {
  Counter original;
  original.set(99);
  serial::Writer w;
  original.serialize(w);
  serial::Reader r(w.take());
  auto restored = world.deserialize("Counter", r);
  EXPECT_EQ(dynamic_cast<Counter&>(*restored).get(), 99);
}

TEST_F(WorldFixture, MethodDispatchNoArgs) {
  auto obj = world.instantiate("Counter");
  const auto& m = world.method("Counter", "increment");
  serial::Writer noargs;
  auto result = m.fn(*obj, noargs.take());
  serial::Reader r(result);
  EXPECT_EQ(serial::get<std::int64_t>(r), 1);
}

TEST_F(WorldFixture, MethodDispatchWithArgs) {
  auto obj = world.instantiate("Counter");
  serial::Writer args;
  serial::put<std::int64_t>(args, 40);
  auto result = world.method("Counter", "add").fn(*obj, args.take());
  serial::Reader r(result);
  EXPECT_EQ(serial::get<std::int64_t>(r), 40);
}

TEST_F(WorldFixture, MethodDispatchStringArgs) {
  auto obj = world.instantiate("Notebook");
  serial::Writer args;
  serial::put<std::string>(args, "first entry");
  (void)world.method("Notebook", "append").fn(*obj, args.take());

  serial::Writer idx;
  serial::put<std::int64_t>(idx, 0);
  auto result = world.method("Notebook", "entry").fn(*obj, idx.take());
  serial::Reader r(result);
  EXPECT_EQ(serial::get<std::string>(r), "first entry");
}

TEST_F(WorldFixture, VoidMethodReturnsUnit) {
  auto obj = world.instantiate("Notebook");
  serial::Writer args;
  serial::put<std::string>(args, "x");
  auto result = world.method("Notebook", "append").fn(*obj, args.take());
  serial::Reader r(result);
  EXPECT_NO_THROW((void)serial::get<serial::Unit>(r));
  EXPECT_TRUE(r.at_end());
}

TEST_F(WorldFixture, ConstMethodDispatch) {
  auto obj = world.instantiate("Counter");
  serial::Writer noargs;
  auto result = world.method("Counter", "get").fn(*obj, noargs.take());
  serial::Reader r(result);
  EXPECT_EQ(serial::get<std::int64_t>(r), 0);
}

TEST_F(WorldFixture, UnknownMethodThrows) {
  EXPECT_THROW((void)world.method("Counter", "frobnicate"),
               common::RemoteInvocationError);
}

TEST_F(WorldFixture, WrongObjectTypeThrows) {
  auto notebook = world.instantiate("Notebook");
  serial::Writer noargs;
  EXPECT_THROW(
      (void)world.method("Counter", "increment").fn(*notebook, noargs.take()),
      common::RemoteInvocationError);
}

TEST_F(WorldFixture, MethodCostDefaultsToZero) {
  EXPECT_EQ(world.method("Counter", "increment").cost_us, 0);
}

TEST(ClassWorldCost, MethodCostIsStored) {
  ClassWorld world;
  ClassBuilder<Counter>(world, "Counter")
      .method("increment", &Counter::increment, /*cost_us=*/1500);
  EXPECT_EQ(world.method("Counter", "increment").cost_us, 1500);
}

// --- class cache -----------------------------------------------------------------

TEST(ClassCache, InstallAndHas) {
  ClassCache cache;
  EXPECT_FALSE(cache.has("Counter"));
  cache.install("Counter");
  EXPECT_TRUE(cache.has("Counter"));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ClassCache, ImageReceiptCachesWhenEnabled) {
  ClassCache cache;
  cache.on_image_received("Counter");
  EXPECT_TRUE(cache.has("Counter"));
}

TEST(ClassCache, CachingDisabledForgetsImages) {
  ClassCache cache;
  cache.set_caching_enabled(false);
  cache.on_image_received("Counter");
  EXPECT_FALSE(cache.has("Counter"));
  // install() (deployment-time classpath) is unaffected by the switch.
  cache.install("Base");
  EXPECT_TRUE(cache.has("Base"));
}

}  // namespace
}  // namespace mage::rts
