// Unit tests for src/common: strong ids, RNG, stats, logging, errors.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"

namespace mage::common {
namespace {

// --- ids ---------------------------------------------------------------------

TEST(Ids, DefaultConstructedIsZero) {
  NodeId id;
  EXPECT_EQ(id.value(), 0u);
}

TEST(Ids, EqualityAndOrdering) {
  NodeId a{1}, b{2}, a2{1};
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, RequestId>);
  static_assert(!std::is_same_v<LockId, ActivityId>);
  SUCCEED();
}

TEST(Ids, HashWorksInUnorderedContainers) {
  std::set<NodeId> ordered{NodeId{3}, NodeId{1}, NodeId{2}};
  EXPECT_EQ(ordered.size(), 3u);
  std::hash<NodeId> h;
  EXPECT_EQ(h(NodeId{7}), h(NodeId{7}));
}

TEST(Ids, NoNodeSentinel) {
  EXPECT_TRUE(is_no_node(kNoNode));
  EXPECT_FALSE(is_no_node(NodeId{1}));
}

TEST(Ids, StreamOutput) {
  std::ostringstream os;
  os << NodeId{5} << " " << kNoNode;
  EXPECT_EQ(os.str(), "node(5) node(-)");
}

// --- time --------------------------------------------------------------------

TEST(Time, Factories) {
  EXPECT_EQ(usec(7), 7);
  EXPECT_EQ(msec(3), 3000);
  EXPECT_EQ(sec(2), 2'000'000);
  EXPECT_EQ(msec_f(1.5), 1500);
}

TEST(Time, ToMs) {
  EXPECT_DOUBLE_EQ(to_ms(msec(33)), 33.0);
  EXPECT_DOUBLE_EQ(to_ms(usec(500)), 0.5);
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);  // roughly uniform
}

TEST(Rng, NextBoolProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 4000; ++i) {
    if (rng.next_bool(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 4000.0, 0.25, 0.04);
}

TEST(Rng, NextBoolDegenerateProbabilities) {
  Rng rng(23);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_FALSE(rng.next_bool(-1.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  EXPECT_TRUE(rng.next_bool(2.0));
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ull);
  Rng rng(3);
  EXPECT_NE(rng(), rng());
}

// --- stats -----------------------------------------------------------------------

TEST(Stats, CountersAccumulate) {
  StatsRegistry stats;
  stats.add("x");
  stats.add("x", 4);
  stats.add("y", -2);
  EXPECT_EQ(stats.counter("x"), 5);
  EXPECT_EQ(stats.counter("y"), -2);
  EXPECT_EQ(stats.counter("missing"), 0);
}

TEST(Stats, Reset) {
  StatsRegistry stats;
  stats.add("x");
  stats.reset();
  EXPECT_EQ(stats.counter("x"), 0);
}

TEST(Stats, ToStringContainsKeys) {
  StatsRegistry stats;
  stats.add("net.messages", 3);
  const auto text = stats.to_string();
  EXPECT_NE(text.find("net.messages = 3"), std::string::npos);
}

// --- log --------------------------------------------------------------------------

TEST(Log, SinkCapturesAtOrAboveLevel) {
  auto& logger = Logger::instance();
  const auto old_level = logger.level();
  std::vector<std::pair<LogLevel, std::string>> captured;
  logger.set_sink([&captured](LogLevel level, const std::string& message) {
    captured.emplace_back(level, message);
  });
  logger.set_level(LogLevel::Info);

  MAGE_DEBUG() << "hidden";
  MAGE_INFO() << "hello " << 42;
  MAGE_ERROR() << "boom";

  logger.set_sink(nullptr);
  logger.set_level(old_level);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].second, "hello 42");
  EXPECT_EQ(captured[1].first, LogLevel::Error);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(log_level_name(LogLevel::Trace), "TRACE");
  EXPECT_STREQ(log_level_name(LogLevel::Error), "ERROR");
}

// --- errors ------------------------------------------------------------------------

TEST(Errors, HierarchyCatchableAsMageError) {
  EXPECT_THROW(throw NotFoundError("obj", "gone"), MageError);
  EXPECT_THROW(throw CoercionError("obj", "bad"), MageError);
  EXPECT_THROW(throw TransportError("down"), MageError);
  EXPECT_THROW(throw SerializationError("trunc"), MageError);
  EXPECT_THROW(throw LockError("stuck"), MageError);
  EXPECT_THROW(throw RemoteInvocationError("far"), MageError);
}

TEST(Errors, NotFoundCarriesName) {
  try {
    throw NotFoundError("geoData", "no binding");
  } catch (const NotFoundError& e) {
    EXPECT_EQ(e.name(), "geoData");
    EXPECT_NE(std::string(e.what()).find("geoData"), std::string::npos);
  }
}

TEST(Errors, CoercionCarriesName) {
  try {
    throw CoercionError("geoData", "RPC mismatch");
  } catch (const CoercionError& e) {
    EXPECT_EQ(e.name(), "geoData");
    EXPECT_NE(std::string(e.what()).find("RPC mismatch"), std::string::npos);
  }
}

}  // namespace
}  // namespace mage::common
