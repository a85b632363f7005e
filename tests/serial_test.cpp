// Unit tests for src/serial: writer/reader, codecs, type registry.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serial/reader.hpp"
#include "serial/serializable.hpp"
#include "serial/traits.hpp"
#include "serial/type_registry.hpp"
#include "serial/writer.hpp"

namespace mage::serial {
namespace {

TEST(WriterReader, PrimitivesRoundTrip) {
  Writer w;
  w.write_u8(0xAB);
  w.write_u16(0xBEEF);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i32(-42);
  w.write_i64(-7'000'000'000LL);
  w.write_bool(true);
  w.write_bool(false);
  w.write_f64(3.14159);
  w.write_string("mage");

  Reader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u16(), 0xBEEF);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_i64(), -7'000'000'000LL);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_EQ(r.read_string(), "mage");
  EXPECT_TRUE(r.at_end());
}

TEST(WriterReader, ExtremeValues) {
  Writer w;
  w.write_i64(std::numeric_limits<std::int64_t>::min());
  w.write_i64(std::numeric_limits<std::int64_t>::max());
  w.write_u64(std::numeric_limits<std::uint64_t>::max());
  w.write_f64(std::numeric_limits<double>::infinity());
  w.write_f64(-0.0);

  Reader r(w.bytes());
  EXPECT_EQ(r.read_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.read_i64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(r.read_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.read_f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.read_f64(), 0.0);
}

TEST(WriterReader, EmptyString) {
  Writer w;
  w.write_string("");
  Reader r(w.bytes());
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(WriterReader, StringWithEmbeddedNulls) {
  Writer w;
  std::string s("a\0b\0c", 5);
  w.write_string(s);
  Reader r(w.bytes());
  EXPECT_EQ(r.read_string(), s);
}

TEST(WriterReader, RawBytes) {
  Writer w;
  const std::uint8_t data[] = {1, 2, 3, 4};
  w.write_raw(data, sizeof(data));
  Reader r(w.bytes());
  std::uint8_t out[4] = {};
  r.read_raw(out, 4);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
}

TEST(WriterReader, TakeEmptiesWriter) {
  Writer w;
  w.write_u32(1);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
}

TEST(Reader, TruncatedPayloadThrows) {
  Writer w;
  w.write_u16(7);
  Reader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 7);  // little-endian low byte
  EXPECT_EQ(r.read_u8(), 0);
  EXPECT_THROW(r.read_u8(), common::SerializationError);
}

TEST(Reader, TruncatedStringThrows) {
  Writer w;
  w.write_u32(100);  // claims 100 bytes follow; none do
  Reader r(w.bytes());
  EXPECT_THROW(r.read_string(), common::SerializationError);
}

TEST(Reader, OffsetAndRemaining) {
  Writer w;
  w.write_u32(1);
  w.write_u32(2);
  Reader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read_u32();
  EXPECT_EQ(r.offset(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

// --- codecs -------------------------------------------------------------------

template <typename T>
T round_trip(const T& value) {
  Writer w;
  put(w, value);
  Reader r(w.bytes());
  T out = get<T>(r);
  EXPECT_TRUE(r.at_end());
  return out;
}

TEST(Codec, Scalars) {
  EXPECT_EQ(round_trip<std::int32_t>(-5), -5);
  EXPECT_EQ(round_trip<std::uint32_t>(5u), 5u);
  EXPECT_EQ(round_trip<std::int64_t>(-5'000'000'000LL), -5'000'000'000LL);
  EXPECT_EQ(round_trip<std::uint64_t>(~0ull), ~0ull);
  EXPECT_EQ(round_trip<bool>(true), true);
  EXPECT_DOUBLE_EQ(round_trip<double>(2.5), 2.5);
  EXPECT_EQ(round_trip<std::string>("hello"), "hello");
}

TEST(Codec, Vector) {
  std::vector<std::int64_t> v{1, -2, 3};
  EXPECT_EQ(round_trip(v), v);
  EXPECT_EQ(round_trip(std::vector<std::int64_t>{}),
            std::vector<std::int64_t>{});
}

TEST(Codec, VectorCountBeyondTheBodyIsRejected) {
  Writer w;
  put(w, std::vector<std::int64_t>{1, 2, 3});
  std::vector<std::uint8_t> bytes(w.bytes().begin(), w.bytes().end());
  // Tag byte, then the u32 count: claim four billion elements.
  for (std::size_t i = 1; i <= 4; ++i) bytes[i] = 0xff;
  Reader r(bytes);
  EXPECT_THROW((void)get<std::vector<std::int64_t>>(r),
               common::SerializationError);
}

TEST(Codec, NestedVector) {
  std::vector<std::vector<std::string>> v{{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(round_trip(v), v);
}

TEST(Codec, Pair) {
  std::pair<std::string, std::int64_t> p{"k", 9};
  EXPECT_EQ(round_trip(p), p);
}

TEST(Codec, Optional) {
  std::optional<std::string> some{"x"};
  std::optional<std::string> none;
  EXPECT_EQ(round_trip(some), some);
  EXPECT_EQ(round_trip(none), none);
}

TEST(Codec, Map) {
  std::map<std::string, std::int64_t> m{{"a", 1}, {"b", 2}};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, Unit) {
  EXPECT_EQ(round_trip(Unit{}), Unit{});
}

TEST(Codec, CompositeKitchenSink) {
  std::map<std::string, std::vector<std::pair<std::int64_t, std::string>>> m{
      {"x", {{1, "one"}, {2, "two"}}},
      {"y", {}},
  };
  EXPECT_EQ(round_trip(m), m);
}

// Property sweep: random strings of many lengths round-trip byte-exactly.
class StringRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(StringRoundTrip, RandomPayload) {
  common::Rng rng(GetParam());
  const auto length = static_cast<std::size_t>(GetParam()) * 37 % 5000;
  std::string s;
  s.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    s.push_back(static_cast<char>(rng.next_below(256)));
  }
  EXPECT_EQ(round_trip(s), s);
}

INSTANTIATE_TEST_SUITE_P(Lengths, StringRoundTrip,
                         ::testing::Range(0, 20));

// Property sweep: random int64 vectors round-trip.
class VectorRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(VectorRoundTrip, RandomPayload) {
  common::Rng rng(GetParam() + 1000);
  std::vector<std::int64_t> v(rng.next_below(200));
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next());
  EXPECT_EQ(round_trip(v), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorRoundTrip, ::testing::Range(0, 10));

// --- type registry ------------------------------------------------------------

class Blob : public Serializable {
 public:
  std::string class_name() const override { return "Blob"; }
  void serialize(Writer& w) const override { w.write_i64(x); }
  void deserialize(Reader& r) override { x = r.read_i64(); }
  std::int64_t x = 0;
};

TEST(TypeRegistry, RegisterAndCreate) {
  TypeRegistry reg;
  EXPECT_TRUE(reg.register_type<Blob>());
  EXPECT_TRUE(reg.contains("Blob"));
  auto obj = reg.create("Blob");
  EXPECT_EQ(obj->class_name(), "Blob");
}

TEST(TypeRegistry, ReRegistrationReturnsFalse) {
  TypeRegistry reg;
  EXPECT_TRUE(reg.register_type<Blob>());
  EXPECT_FALSE(reg.register_type<Blob>());
}

TEST(TypeRegistry, UnknownClassThrows) {
  TypeRegistry reg;
  EXPECT_THROW((void)reg.create("Nope"), common::SerializationError);
}

TEST(TypeRegistry, DeserializeObjectRestoresState) {
  TypeRegistry reg;
  reg.register_type<Blob>();
  Blob original;
  original.x = 77;
  Writer w;
  original.serialize(w);
  Reader r(w.bytes());
  auto restored = reg.deserialize_object("Blob", r);
  EXPECT_EQ(dynamic_cast<Blob&>(*restored).x, 77);
}

TEST(TypeRegistry, RegisteredNamesSorted) {
  TypeRegistry reg;
  reg.register_type("b", [] { return std::make_unique<Blob>(); });
  reg.register_type("a", [] { return std::make_unique<Blob>(); });
  const auto names = reg.registered_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

}  // namespace
}  // namespace mage::serial
