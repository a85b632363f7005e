// Unit tests for src/serial: writer/reader, codecs, buffers and chains.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/traits.hpp"
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

// --- inline buffers (at most Buffer::kInlineCapacity bytes) ----------------

std::vector<std::uint8_t> counting_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{1});
  return bytes;
}

TEST(InlineBuffer, CopyMoveAndAssignKeepTheBytes) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}}) {
    SCOPED_TRACE(std::to_string(n) + " bytes");
    const std::vector<std::uint8_t> bytes = counting_bytes(n);
    const Buffer original = Buffer::copy(bytes);
    ASSERT_EQ(original.is_inline(), n <= Buffer::kInlineCapacity);

    Buffer copied(original);
    EXPECT_EQ(copied, bytes);
    EXPECT_EQ(copied.is_inline(), original.is_inline());
    // Shared storage is shared; inline bytes are the copy's own.
    EXPECT_EQ(copied.data() == original.data(), !original.is_inline());

    Buffer assigned{9};
    assigned = original;
    EXPECT_EQ(assigned, bytes);

    Buffer moved(std::move(copied));
    EXPECT_EQ(moved, bytes);
    EXPECT_TRUE(copied.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copied.span().size(), 0u);  // NOLINT(bugprone-use-after-move)

    Buffer target(counting_bytes(40));  // shared; released by the move
    target = std::move(moved);
    EXPECT_EQ(target, bytes);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

    Buffer& alias = target;
    target = alias;
    EXPECT_EQ(target, bytes);
    target = std::move(alias);
    EXPECT_EQ(target, bytes);

    copied = original;  // a moved-from buffer takes a new value
    EXPECT_EQ(copied, bytes);
  }
}

TEST(InlineBuffer, WriterMoveAndCopyKeepTheBytes) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{40}}) {
    SCOPED_TRACE(std::to_string(n) + " bytes");
    Writer w;
    w.write_fill(0x5A, n);
    Writer copied(w);
    Writer moved(std::move(w));
    EXPECT_EQ(w.size(), 0u);  // NOLINT(bugprone-use-after-move)
    Writer assigned;
    assigned = copied;
    // Each cursor carries on where its bytes end.
    copied.write_u8(1);
    moved.write_u8(1);
    assigned.write_u8(1);
    w.write_u8(2);  // NOLINT(bugprone-use-after-move)
    std::vector<std::uint8_t> expected(n, 0x5A);
    expected.push_back(1);
    EXPECT_EQ(copied.take(), expected);
    EXPECT_EQ(moved.take(), expected);
    EXPECT_EQ(assigned.take(), expected);
    EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{2}));
  }
}

TEST(InlineBuffer, SliceOfAnInlineBufferIsInline) {
  const Buffer small = Buffer::copy(counting_bytes(24));
  ASSERT_TRUE(small.is_inline());
  const Buffer part = small.slice(20, 4);
  EXPECT_TRUE(part.is_inline());
  EXPECT_EQ(part, (std::vector<std::uint8_t>{21, 22, 23, 24}));
  // A small slice of a shared buffer still aliases the block.
  const Buffer shared = Buffer::copy(counting_bytes(25));
  ASSERT_FALSE(shared.is_inline());
  const Buffer tail = shared.slice(23, 2);
  EXPECT_FALSE(tail.is_inline());
  EXPECT_EQ(tail.data(), shared.data() + 23);
}

TEST(InlineBuffer, SizesPastTheU32FieldThrow) {
  // The handle's size field is 32 bits wide: a larger buffer is refused,
  // not truncated.  The check comes before any byte is read, so a
  // fabricated oversized span is safe to pass.
  Buffer::reset_copy_counters();
  const std::uint8_t byte = 0;
  const std::span<const std::uint8_t> huge(&byte, (std::size_t{1} << 32) + 1);
  EXPECT_THROW((void)Buffer::copy(huge), common::SerializationError);
  EXPECT_EQ(Buffer::deep_copy_count(), 0u);
  std::shared_ptr<const std::uint8_t[]> block(new std::uint8_t[1]{0});
  EXPECT_THROW((void)Buffer::adopt_shared(block, (std::size_t{1} << 32) + 1),
               common::SerializationError);
}

// An 18-byte record, so its Buffer is inline.
Buffer small_record() {
  Writer w;
  w.write_string("abc");
  w.write_bytes(std::vector<std::uint8_t>{7, 8, 9});
  w.write_u32(0xC0FFEE);
  return w.take();
}

// Reads small_record() back, checking that the view and the slice taken
// first are still intact after the reads that follow them.
void expect_small_record(Reader& r) {
  const std::string_view view = r.read_view();
  const Buffer nested = r.read_bytes();
  EXPECT_EQ(r.read_u32(), 0xC0FFEEu);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(view, "abc");
  EXPECT_EQ(nested, (std::vector<std::uint8_t>{7, 8, 9}));
}

// A Buffer-built Reader reads its own copy of the handle, so its views
// live as long as the reader, whatever happens to the argument.
TEST(ReaderLifetime, ReaderOverATemporaryInlineBuffer) {
  ASSERT_TRUE(small_record().is_inline());
  Reader r(small_record());
  expect_small_record(r);
}

TEST(ReaderLifetime, ArgumentDestroyedBeforeTheReads) {
  auto source = std::make_unique<Buffer>(small_record());
  Reader r(*source);
  source.reset();
  expect_small_record(r);
}

TEST(ReaderLifetime, ArgumentLeftScopeBeforeTheReads) {
  std::optional<Reader> r;
  {
    const Buffer source = small_record();
    r.emplace(source);
  }
  expect_small_record(*r);
}

TEST(ReaderLifetime, ViewsOutliveTheArgument) {
  std::optional<Reader> r;
  std::string_view view;
  Buffer nested;
  {
    const Buffer source = small_record();
    r.emplace(source);
    view = r->read_view();
    nested = r->read_bytes();
  }
  EXPECT_EQ(view, "abc");  // still the reader's bytes
  EXPECT_EQ(nested, (std::vector<std::uint8_t>{7, 8, 9}));
  EXPECT_EQ(r->read_u32(), 0xC0FFEEu);
}

TEST(ChainReaderLifetime, InlineFragmentsReadAcrossEveryCut) {
  Writer flat;
  flat.write_u32(0xDEADBEEF);
  flat.write_bytes(std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6});
  flat.write_u64(42);
  const Buffer bytes = flat.take();
  ASSERT_TRUE(bytes.is_inline());

  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    Buffer nested;
    {
      BufferChain chain;
      chain.append(bytes.slice(0, cut));
      chain.append(bytes.slice(cut, bytes.size() - cut));
      ASSERT_TRUE(chain.fragment(0).is_inline());
      ChainReader r(std::move(chain));
      EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
      ChainReader moved(std::move(r));  // the fragments move with it
      nested = moved.read_bytes();
      EXPECT_EQ(moved.read_u64(), 42u);
      EXPECT_TRUE(moved.at_end());
    }
    EXPECT_EQ(nested, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
  }
}

TEST(ChainReaderLifetime, ReaderOverATemporaryInlineBuffer) {
  ChainReader r(small_record());
  EXPECT_EQ(r.read_string(), "abc");
  EXPECT_EQ(r.read_bytes(), (std::vector<std::uint8_t>{7, 8, 9}));
  EXPECT_EQ(r.read_u32(), 0xC0FFEEu);
  EXPECT_TRUE(r.at_end());
}

}  // namespace
}  // namespace mage::serial
