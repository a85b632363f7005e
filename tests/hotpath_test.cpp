// Tests for the hot-path spine: ref-counted zero-copy payloads (Buffer),
// scatter-gather body chains (BufferChain/ChainWriter), zero-copy Reader
// slices, verb interning, the pooled cancellable EventQueue
// (determinism under interleaving), the open-addressed FlatMap64 behind the
// transport's receive path, the move-only one-shot Replier contract — and
// the allocation budgets: a steady-state call round trip makes NO heap
// allocation, and a steady-state MAGE invoke an exact number (counted via
// a replaced global operator new).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/verb.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rmi/transport.hpp"
#include "rts/async_client.hpp"
#include "rts/class_world.hpp"
#include "rts/directory.hpp"
#include "rts/server.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

// Replaces global operator new/delete for this binary so steady-state tests
// can assert allocation budgets, not just copy budgets.
#include "common/alloc_counter.hpp"

namespace mage {
namespace {

using common::alloc_count;

// --- serial::Buffer ---------------------------------------------------------

TEST(Buffer, AdoptDoesNotCopy) {
  serial::Buffer::reset_copy_counters();
  std::vector<std::uint8_t> bytes(1024, 0x7F);
  const auto* data = bytes.data();
  serial::Buffer buf(std::move(bytes));
  EXPECT_EQ(buf.data(), data);  // same storage, just adopted
  EXPECT_EQ(buf.size(), 1024u);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(Buffer, CopiesAreCounted) {
  serial::Buffer::reset_copy_counters();
  const std::vector<std::uint8_t> bytes(100, 1);
  auto copy = serial::Buffer::copy(bytes);
  EXPECT_EQ(copy.size(), 100u);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 1u);
  EXPECT_EQ(serial::Buffer::deep_copy_bytes(), 100u);
}

TEST(Buffer, SliceSharesStorage) {
  serial::Buffer::reset_copy_counters();
  std::vector<std::uint8_t> bytes(256);
  std::iota(bytes.begin(), bytes.end(), 0);
  serial::Buffer buf(std::move(bytes));
  auto mid = buf.slice(16, 64);
  EXPECT_EQ(mid.size(), 64u);
  EXPECT_EQ(mid.data(), buf.data() + 16);  // a view, not a copy
  EXPECT_EQ(mid[0], 16);
  // Sub-slicing composes.
  auto inner = mid.slice(8, 8);
  EXPECT_EQ(inner.data(), buf.data() + 24);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(Buffer, SliceOutlivesParentHandle) {
  serial::Buffer tail;
  {
    std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
    serial::Buffer buf(std::move(bytes));
    tail = buf.slice(3, 2);
  }  // parent handle gone; refcount keeps the storage alive
  EXPECT_EQ(tail, (std::vector<std::uint8_t>{4, 5}));
}

TEST(Buffer, SliceOutOfBoundsThrows) {
  serial::Buffer buf(std::vector<std::uint8_t>(8));
  EXPECT_THROW((void)buf.slice(4, 8), common::SerializationError);
  EXPECT_THROW((void)buf.slice(9, 0), common::SerializationError);
  EXPECT_NO_THROW((void)buf.slice(8, 0));
}

TEST(Buffer, EqualityIsByteWise) {
  serial::Buffer a{1, 2, 3};
  serial::Buffer b{1, 2, 3};
  serial::Buffer c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Writer, TakeIsSingleAllocation) {
  // The whole point of the shared-array Writer: reserve + build + take is
  // one make_shared<uint8_t[]> block, no vector, no separate control block.
  const auto before = alloc_count();
  serial::Writer w(64);
  for (std::uint64_t i = 0; i < 4; ++i) w.write_u64(0x1122334455667788ull);
  serial::Buffer out = w.take();
  EXPECT_EQ(alloc_count() - before, 1u);
  EXPECT_EQ(out.size(), 32u);
}

TEST(InlineBuffer, SizeAloneSelectsTheStorage) {
  // At most kInlineCapacity bytes live in the handle: Writer::take() and
  // Buffer::copy() of such a payload allocate nothing.
  for (const std::size_t n : {0, 1, 24, 25}) {
    SCOPED_TRACE(std::to_string(n) + " bytes");
    const bool small = n <= serial::Buffer::kInlineCapacity;
    std::vector<std::uint8_t> bytes(n);
    std::iota(bytes.begin(), bytes.end(), std::uint8_t{1});

    auto before = alloc_count();
    serial::Writer w;
    w.write_raw(bytes.data(), bytes.size());
    const serial::Buffer taken = w.take();
    EXPECT_EQ(alloc_count() - before, small ? 0u : 1u);
    EXPECT_EQ(taken.is_inline(), small);
    EXPECT_EQ(taken, bytes);

    serial::Buffer::reset_copy_counters();
    before = alloc_count();
    const serial::Buffer copied = serial::Buffer::copy(bytes);
    EXPECT_EQ(alloc_count() - before, small ? 0u : 1u);
    EXPECT_EQ(copied.is_inline(), small);
    EXPECT_EQ(copied, bytes);
    // A deep copy is counted whichever storage it lands in.
    EXPECT_EQ(serial::Buffer::deep_copy_count(), 1u);
    EXPECT_EQ(serial::Buffer::deep_copy_bytes(), n);

    before = alloc_count();
    const serial::Buffer again = copied;  // a handle copy: never allocates
    EXPECT_EQ(alloc_count() - before, 0u);
    EXPECT_EQ(again, bytes);
  }
}

// --- scatter-gather chains ---------------------------------------------------

TEST(BufferChain, SingleFragmentImplicitConversion) {
  // Larger than Buffer::kInlineCapacity, so the storage is shared.
  const serial::Buffer payload(std::vector<std::uint8_t>(32, 3));
  serial::BufferChain chain = payload;
  EXPECT_EQ(chain.fragments(), 1u);
  EXPECT_EQ(chain.size(), 32u);
  EXPECT_EQ(chain, payload);
  EXPECT_EQ(chain.flatten().data(), payload.data());  // shares storage
}

TEST(BufferChain, AppendAndLogicalEquality) {
  serial::BufferChain chain;
  chain.append(serial::Buffer{1, 2});
  chain.append(serial::Buffer{});  // empty fragment is legal
  chain.append(serial::Buffer{3, 4, 5});
  EXPECT_EQ(chain.fragments(), 3u);
  EXPECT_EQ(chain.size(), 5u);
  EXPECT_EQ(chain, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  // Equality is over the logical stream, not the fragmentation.
  serial::BufferChain other = serial::Buffer{1, 2, 3, 4, 5};
  EXPECT_TRUE(chain == other);
}

TEST(BufferChain, FragmentCapIsEnforced) {
  serial::BufferChain chain;
  for (std::size_t i = 0; i < serial::BufferChain::kMaxFragments; ++i) {
    chain.append(serial::Buffer{1});
  }
  EXPECT_THROW(chain.append(serial::Buffer{1}), common::SerializationError);
}

TEST(BufferChain, FlattenGathersAndCounts) {
  serial::BufferChain chain;
  chain.append(serial::Buffer{1, 2});
  chain.append(serial::Buffer{3});
  serial::Buffer::reset_copy_counters();
  EXPECT_EQ(chain.flatten(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 1u);
  EXPECT_EQ(serial::Buffer::deep_copy_bytes(), 3u);
}

TEST(ChainWriter, PayloadRidesAsFragmentWithoutCopy) {
  const serial::Buffer args(std::vector<std::uint8_t>(512, 0xAB));
  serial::Buffer::reset_copy_counters();

  serial::ChainWriter w;
  w.write_string("component");
  w.write_string("method");
  w.append_payload(args);
  serial::BufferChain body = w.take();

  ASSERT_EQ(body.fragments(), 2u);
  EXPECT_EQ(body.fragment(1).data(), args.data());  // spliced, not copied
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);

  // The logical stream is byte-identical to the copying encoder's output.
  serial::Writer flat;
  flat.write_string("component");
  flat.write_string("method");
  flat.write_bytes(args.span());
  EXPECT_EQ(body, flat.take());
}

TEST(ChainWriter, FieldsAfterPayloadGetTheirOwnFragment) {
  // Larger than Buffer::kInlineCapacity, so the storage is shared.
  const serial::Buffer args(std::vector<std::uint8_t>(32, 9));
  serial::ChainWriter w;
  w.write_string("obj");
  w.append_payload(args);
  w.write_u32(1234);  // trailing field, e.g. ExecRequest::class_source
  serial::BufferChain body = w.take();
  ASSERT_EQ(body.fragments(), 3u);

  serial::Reader r(body);
  EXPECT_EQ(r.read_string(), "obj");
  serial::Buffer::reset_copy_counters();
  serial::Buffer nested = r.read_bytes();
  EXPECT_EQ(nested.data(), args.data());  // zero-copy slice of the fragment
  EXPECT_EQ(r.read_u32(), 1234u);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(ChainWriter, EmptyPayloadSpendsNoFragment) {
  serial::ChainWriter w;
  w.write_u8(1);
  w.append_payload({});
  w.write_u8(2);
  serial::BufferChain body = w.take();
  EXPECT_EQ(body.fragments(), 1u);  // prefix+suffix coalesce
  serial::Reader r(body);
  EXPECT_EQ(r.read_u8(), 1u);
  EXPECT_TRUE(r.read_bytes().empty());
  EXPECT_EQ(r.read_u8(), 2u);
}

// --- scatter-gather envelopes ------------------------------------------------

TEST(EnvelopeChain, MultiFragmentRoundTrip) {
  rmi::Envelope e;
  e.kind = rmi::EnvelopeKind::Request;
  e.request_id = common::RequestId{7};
  e.verb = common::intern_verb("hp.frag");
  e.body.append(serial::Buffer{1, 2});
  // Larger than Buffer::kInlineCapacity, so the storage is shared.
  e.body.append(serial::Buffer(std::vector<std::uint8_t>(32, 4)));
  e.body.append(serial::Buffer{6});

  // Scatter-gather form: fragments pass through untouched.
  const auto header = e.encode_header();
  const auto decoded = rmi::Envelope::decode(header, e.body);
  EXPECT_EQ(decoded.request_id, common::RequestId{7});
  ASSERT_EQ(decoded.body.fragments(), 3u);
  EXPECT_EQ(decoded.body.fragment(1).data(), e.body.fragment(1).data());

  // Flat form: the concatenation round-trips, fragment structure preserved.
  const auto flat = e.encode();
  const auto from_flat = rmi::Envelope::decode(flat);
  ASSERT_EQ(from_flat.body.fragments(), 3u);
  EXPECT_EQ(from_flat.body, e.body);
  EXPECT_EQ(from_flat.body.fragment(0), (std::vector<std::uint8_t>{1, 2}));
}

TEST(EnvelopeChain, EmptyFragmentRoundTrips) {
  rmi::Envelope e;
  e.kind = rmi::EnvelopeKind::Reply;
  e.request_id = common::RequestId{8};
  e.verb = common::intern_verb("hp.frag");
  e.body.append(serial::Buffer{1});
  e.body.append(serial::Buffer{});  // explicit zero-size fragment
  const auto decoded = rmi::Envelope::decode(e.encode());
  ASSERT_EQ(decoded.body.fragments(), 2u);
  EXPECT_EQ(decoded.body.fragment(1).size(), 0u);
  EXPECT_EQ(decoded.body, (std::vector<std::uint8_t>{1}));
}

TEST(EnvelopeChain, FragmentCountMismatchThrows) {
  rmi::Envelope e;
  e.kind = rmi::EnvelopeKind::Request;
  e.request_id = common::RequestId{9};
  e.verb = common::intern_verb("hp.frag");
  e.body.append(serial::Buffer{1, 2});
  const auto header = e.encode_header();
  serial::BufferChain wrong;
  wrong.append(serial::Buffer{1});
  wrong.append(serial::Buffer{2});
  EXPECT_THROW((void)rmi::Envelope::decode(header, wrong),
               common::SerializationError);
}

// --- zero-copy Reader slices ------------------------------------------------

TEST(ReaderViews, RoundTripPropertyWithZeroCopies) {
  // Property test: random nested payloads survive a write/read round trip,
  // and reading through a Buffer-backed Reader never deep-copies.
  common::Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> blob(rng.next_below(2048));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
    const std::string text = "round-" + std::to_string(round);

    serial::Writer w(16 + blob.size() + text.size());
    w.write_string(text);
    w.write_bytes(blob);
    w.write_u32(0xDEADBEEF);
    serial::Buffer encoded = w.take();

    serial::Buffer::reset_copy_counters();
    serial::Reader r(encoded);
    EXPECT_EQ(r.read_string(), text);
    serial::Buffer nested = r.read_bytes();
    EXPECT_EQ(nested, blob);
    if (!nested.empty()) {
      EXPECT_GE(nested.data(), encoded.data());  // shared slice
      EXPECT_LT(nested.data(), encoded.data() + encoded.size());
    }
    EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
  }
}

TEST(Writer, OversizedStringThrows) {
  // The length prefix is u32; a silent truncation used to write a wrong
  // length and corrupt the stream.  The size check fires before any bytes
  // are touched, so a fabricated oversized view is safe to pass.
  serial::Writer w;
  const char c = 'x';
  const std::string_view huge(&c, (1ull << 32) + 1);
  EXPECT_THROW(w.write_string(huge), common::SerializationError);
  EXPECT_EQ(w.size(), 0u);  // nothing was written
}

TEST(Writer, ReservePreallocates) {
  serial::Writer w(4096);
  const std::vector<std::uint8_t> chunk(4096, 9);
  w.write_raw(chunk.data(), chunk.size());
  EXPECT_EQ(w.size(), 4096u);
  EXPECT_EQ(w.take().size(), 4096u);
}

// --- verb interning ---------------------------------------------------------

TEST(VerbInterning, SameSpellingSameId) {
  const auto a = common::intern_verb("hotpath.test.verb");
  const auto b = common::intern_verb("hotpath.test.verb");
  const auto c = common::intern_verb("hotpath.test.other");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(common::verb_name(a), "hotpath.test.verb");
  EXPECT_EQ(common::verb_calls_stat(a), "rmi.calls.hotpath.test.verb");
}

TEST(VerbInterning, InvalidIdHasPlaceholderName) {
  EXPECT_EQ(common::verb_name(common::VerbId{}), "<invalid-verb>");
}

// --- FlatMap64 --------------------------------------------------------------

TEST(FlatMap64, InsertFindErase) {
  common::FlatMap64<int> map;
  auto [v, inserted] = map.try_emplace(42);
  EXPECT_TRUE(inserted);
  *v = 7;
  EXPECT_EQ(*map.find(42), 7);
  EXPECT_EQ(map.find(43), nullptr);
  auto [again, fresh] = map.try_emplace(42);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(*again, 7);
  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap64, MatchesReferenceUnderChurn) {
  // Randomized differential test against unordered_map: inserts, erases,
  // lookups — growth, probe wraparound, and backward-shift deletion all get
  // exercised (keys are drawn from a small range to force collisions).
  common::FlatMap64<std::uint64_t> map(16);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  common::Rng rng(99);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = 1 + rng.next_below(512);
    switch (rng.next_below(3)) {
      case 0: {  // insert/overwrite
        const std::uint64_t value = rng.next_below(1u << 30);
        *map.try_emplace(key).first = value;
        ref[key] = value;
        break;
      }
      case 1: {  // erase
        EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {  // lookup
        auto* got = map.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  for (const auto& [key, value] : ref) {
    auto* got = map.find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, value);
  }
}

TEST(FlatMap64, ReservePinsCapacity) {
  common::FlatMap64<std::uint64_t> map;
  map.reserve(1000);
  const auto before = alloc_count();
  for (std::uint64_t k = 1; k <= 1000; ++k) *map.try_emplace(k).first = k;
  EXPECT_EQ(alloc_count(), before);  // no growth, no per-node allocation
}

// --- pooled EventQueue ------------------------------------------------------

TEST(PooledEventQueue, SameInstantFifoUnderInterleavedScheduleAndPop) {
  // Determinism regression: events at one instant fire in scheduling order
  // even when schedules and pops interleave (pops recycle slab slots, which
  // must not perturb the (time, seq) order).
  sim::EventQueue q;
  std::vector<int> fired;
  auto make = [&fired](int tag) { return [&fired, tag] { fired.push_back(tag); }; };

  q.schedule(5, make(0));
  q.schedule(5, make(1));
  common::SimTime at = 0;
  q.pop(at)();  // fires 0, frees its slot
  q.schedule(5, make(2));  // reuses the freed slot
  q.schedule(5, make(3));
  q.pop(at)();
  q.schedule(5, make(4));
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(at, 5);
}

TEST(PooledEventQueue, EarlierTimeBeatsEarlierSeq) {
  sim::EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] { fired.push_back(10); });
  q.schedule(3, [&] { fired.push_back(3); });
  q.schedule(7, [&] { fired.push_back(7); });
  common::SimTime at = 0;
  while (!q.empty()) q.pop(at)();
  EXPECT_EQ(fired, (std::vector<int>{3, 7, 10}));
}

TEST(PooledEventQueue, SlabIsReusedNotGrown) {
  sim::EventQueue q;
  common::SimTime at = 0;
  // Steady state: one event in flight at a time -> one pooled node, ever.
  for (int i = 0; i < 10'000; ++i) {
    q.schedule(i, [] {});
    (void)q.pop(at);
  }
  EXPECT_EQ(q.pool_size(), 1u);
}

TEST(PooledEventQueue, CancelPreventsFiring) {
  sim::EventQueue q;
  bool fired = false;
  const auto id = q.schedule(1, [&fired] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(fired);
}

TEST(PooledEventQueue, CancelledSlotReuseDoesNotConfuseCancel) {
  sim::EventQueue q;
  const auto id = q.schedule(1, [] {});
  ASSERT_TRUE(q.cancel(id));
  // The slot is recycled for a new event; the stale id must not cancel it.
  bool fired = false;
  q.schedule(2, [&fired] { fired = true; });
  EXPECT_FALSE(q.cancel(id));
  common::SimTime at = 0;
  q.pop(at)();
  EXPECT_TRUE(fired);
  EXPECT_EQ(at, 2);
}

TEST(PooledEventQueue, MassCancellationCompactsAndPreservesOrder) {
  sim::EventQueue q;
  std::vector<int> fired;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(100, [&fired, i] { fired.push_back(i); }));
  }
  // Cancel every odd event; survivors must still fire in FIFO order.
  for (int i = 1; i < 1000; i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 500u);
  common::SimTime at = 0;
  while (!q.empty()) q.pop(at)();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 0; i + 1 < fired.size(); ++i) {
    EXPECT_LT(fired[i], fired[i + 1]);
  }
}

TEST(PooledEventQueue, MoveOnlyActionsAreSupported) {
  // The point of UniqueFunction: actions may capture move-only state.
  sim::EventQueue q;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  q.schedule(1, [p = std::move(payload), &seen] { seen = *p; });
  common::SimTime at = 0;
  q.pop(at)();
  EXPECT_EQ(seen, 42);
}

// --- transport zero-copy + Replier contract ---------------------------------

struct HotpathRmiFixture : ::testing::Test {
  sim::Simulation sim{99};
  net::Network net{sim, net::CostModel::zero()};
  common::NodeId a = net.add_node("a");
  common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a};
  rmi::Transport tb{net, b};
};

TEST_F(HotpathRmiFixture, SteadyStateCallIsZeroPayloadCopies) {
  const auto echo = common::intern_verb("hp.echo");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });
  const serial::Buffer payload(std::vector<std::uint8_t>(2048, 0x3C));
  (void)ta.call_sync(b, echo, payload);  // warm connection

  serial::Buffer::reset_copy_counters();
  for (int i = 0; i < 100; ++i) {
    auto result = ta.call_sync(b, echo, payload);
    ASSERT_EQ(result.size(), payload.size());
  }
  // The whole spine — envelope, network, retransmission state, reply cache,
  // CallResult — moved refcounts, never bytes.
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST(HotpathAllocation, SteadyStateCallMakesNoAllocation) {
  // The allocation budget the spine promises: a steady-state call round
  // trip makes NO heap allocation.  Both headers (17 and 18 bytes) and a
  // small body are inline Buffers, a large payload travels by refcount,
  // pending calls sit in slab slots that freed calls hand back, the
  // pending and reply-cache indexes stop growing once warm, the entries
  // ring is full and overwritten in place, event nodes come from the
  // pooled slab, and captures stay inline in UniqueFunction storage.  Two
  // body shapes: an 8-byte body a Writer builds per call (the echo
  // storm's, whose reply the cache keeps packed) and a shared 512-byte
  // payload (kept as its handle, with no side slot).
  //
  // A small reply cache, warmed past its capacity, puts the measured loop
  // in the long-run regime — ring wrapped, continuously evicting — which
  // is exactly where the budget must hold.
  constexpr std::size_t kCacheCapacity = 64;
  sim::Simulation sim{77};
  net::Network net{sim, net::CostModel::zero()};
  const common::NodeId a = net.add_node("a");
  const common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a, kCacheCapacity};
  rmi::Transport tb{net, b, kCacheCapacity};

  const auto echo = common::intern_verb("hp.alloc");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });
  const serial::Buffer payload(std::vector<std::uint8_t>(512, 0x11));
  std::uint64_t seq = 0;
  const auto call = [&](bool small) {
    if (!small) return ta.call_sync(b, echo, payload);
    serial::Writer body(8);
    body.write_u64(++seq);
    return ta.call_sync(b, echo, body.take());
  };
  // Warm-up: connection setup, stats handles, event slab, verb counters,
  // and 2x the ring capacity so both ends' entry rings have wrapped.
  for (std::size_t i = 0; i < 2 * kCacheCapacity; ++i) (void)call(i % 2 == 0);
  ASSERT_GT(sim.stats().counter("rmi.reply_cache_evictions"), 0);

  for (const bool small : {true, false}) {
    SCOPED_TRACE(small ? "8-byte body" : "512-byte payload");
    constexpr std::uint64_t kCalls = 100;
    const auto before = alloc_count();
    for (std::uint64_t i = 0; i < kCalls; ++i) (void)call(small);
    EXPECT_EQ(alloc_count() - before, 0u);
  }
}

TEST(HotpathAllocation, SpilledReplyReusesItsSlots) {
  // A reply the at-most-once cache cannot keep in its entry takes a slot
  // of a side slab.  Echoing one such shape through a 64-entry ring, every
  // insert evicts an entry whose slot the next reply takes: once a warm-up
  // has wrapped the ring with that shape, the cache allocates nothing, so
  // the slab holds at most the ring's capacity.  Two spilled shapes: two
  // 24-byte fragments (inline, 48 bytes together), whose round trip makes
  // no allocation at all, and a three-fragment chain, whose headers (26
  // and 27 bytes, over Buffer's inline capacity) are the round trip's only
  // two allocations.
  constexpr std::size_t kCacheCapacity = 64;
  sim::Simulation sim{78};
  net::Network net{sim, net::CostModel::zero()};
  const common::NodeId a = net.add_node("a");
  const common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a, kCacheCapacity};
  rmi::Transport tb{net, b, kCacheCapacity};

  const auto echo = common::intern_verb("hp.spill");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });
  const auto fragment = [](std::size_t size, std::uint8_t fill) {
    return serial::Buffer(std::vector<std::uint8_t>(size, fill));
  };
  serial::BufferChain two;
  two.append(fragment(24, 0x21));
  two.append(fragment(24, 0x22));
  serial::BufferChain three;
  three.append(fragment(8, 0x23));
  three.append(fragment(100, 0x24));
  three.append(fragment(8, 0x25));

  struct Shape {
    const char* name;
    const serial::BufferChain& body;
    std::uint64_t header_allocations;
  };
  for (const Shape& shape : {Shape{"two 24-byte fragments", two, 0},
                             Shape{"three fragments", three, 2}}) {
    SCOPED_TRACE(shape.name);
    for (std::size_t i = 0; i < 2 * kCacheCapacity; ++i) {
      (void)ta.call_sync(b, echo, shape.body);
    }
    constexpr std::uint64_t kCalls = 100;
    const auto before = alloc_count();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      const serial::BufferChain result = ta.call_sync(b, echo, shape.body);
      ASSERT_EQ(result.fragments(), shape.body.fragments());
    }
    EXPECT_EQ(alloc_count() - before, kCalls * shape.header_allocations);
  }
  EXPECT_GT(sim.stats().counter("rmi.reply_cache_evictions"), 0);
}

TEST(HotpathAllocation, BatchFrameIsTheOnlyAllocationPerFrame) {
  // A batched link in steady state: 16 calls per flush quantum ride one
  // request frame, their replies one reply frame, and the frame's encode
  // is the one allocation either makes.  The receiver decodes every frame
  // into a vector it keeps, and its reply cache keeps the echoed bodies
  // packed, not as slices pinning the request frame.
  constexpr std::size_t kCacheCapacity = 64;
  constexpr int kCallsPerQuantum = 16;
  sim::Simulation sim{79};
  net::Network net{sim, net::CostModel::zero()};
  const common::NodeId a = net.add_node("a");
  const common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a, kCacheCapacity};
  rmi::Transport tb{net, b, kCacheCapacity};
  rmi::BatchOptions batching;
  batching.enabled = true;
  ta.set_batching(batching);
  tb.set_batching(batching);

  const auto echo = common::intern_verb("hp.batch");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });
  std::uint64_t seq = 0;
  std::uint64_t completed = 0;
  const auto round = [&] {
    const std::uint64_t target = completed + kCallsPerQuantum;
    for (int i = 0; i < kCallsPerQuantum; ++i) {
      serial::Writer body(8);
      body.write_u64(++seq);
      ta.call(b, echo, body.take(), [&completed](rmi::CallResult r) {
        if (r.ok) ++completed;
      });
    }
    ASSERT_TRUE(sim.run_until([&] { return completed == target; }));
  };
  // Warm-up: 8 rounds wrap both 64-entry rings twice.
  for (int i = 0; i < 8; ++i) round();
  ASSERT_GT(sim.stats().counter("rmi.reply_cache_evictions"), 0);

  constexpr int kRounds = 10;
  const std::int64_t frames_before = sim.stats().counter("rmi.batches_sent");
  const auto before = alloc_count();
  for (int i = 0; i < kRounds; ++i) round();
  const auto allocations = alloc_count() - before;
  const std::int64_t frames =
      sim.stats().counter("rmi.batches_sent") - frames_before;
  EXPECT_EQ(frames, 2 * kRounds);
  EXPECT_EQ(allocations, static_cast<std::uint64_t>(frames));
}

TEST(HotpathAllocation, AdaptiveGrowMovesTheRingOnce) {
  // The call whose insert doubles an adaptive ring makes two allocations:
  // the grown ring, laid out for its new capacity at once so the inserts
  // that fill it never move it again, and the index's larger table (it
  // keeps its keys and learns their new slots).  The calls around it make
  // none.
  constexpr std::size_t kFloor = 8;
  sim::Simulation sim{80};
  net::Network net{sim, net::CostModel::zero()};
  const common::NodeId a = net.add_node("a");
  const common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a};
  rmi::Transport tb{net, b, kFloor};
  rmi::AdaptiveCacheOptions adaptive;
  adaptive.enabled = true;
  adaptive.floor = kFloor;
  adaptive.ceiling = 8 * kFloor;
  tb.set_adaptive_reply_cache(adaptive);

  const auto echo = common::intern_verb("hp.grow");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });
  std::uint64_t seq = 0;
  const auto call_allocations = [&] {
    serial::Writer body(8);
    body.write_u64(++seq);
    const auto before = alloc_count();
    (void)ta.call_sync(b, echo, body.take());
    return alloc_count() - before;
  };
  // Fill the ring (the calls that warm the link up), then evict up to the
  // grow threshold.
  for (std::size_t i = 0; i < kFloor; ++i) (void)call_allocations();
  for (int i = 0; i < rmi::Transport::kGrowThreshold; ++i) {
    EXPECT_EQ(call_allocations(), 0u) << "evicting call " << i;
  }
  ASSERT_EQ(tb.reply_cache_capacity(), kFloor);
  ASSERT_EQ(sim.stats().counter("rmi.reply_cache_evictions"),
            rmi::Transport::kGrowThreshold);

  EXPECT_EQ(call_allocations(), 2u);
  ASSERT_EQ(tb.reply_cache_capacity(), 2 * kFloor);
  for (std::size_t i = kFloor + 1; i < 2 * kFloor; ++i) {
    EXPECT_EQ(call_allocations(), 0u) << "filling entry " << i;
  }
  EXPECT_EQ(sim.stats().counter("rmi.reply_cache_grows"), 1);
}

// A session of bench/e2e `mobile`'s shape: "work" answers 8 bytes.
class AllocSession : public rts::MageObject {
 public:
  [[nodiscard]] std::string class_name() const override { return "Session"; }
  void serialize(serial::Writer& w) const override { w.write_u64(served); }
  void deserialize(serial::Reader& r) override { served = r.read_u64(); }
  std::uint64_t served = 0;
};

TEST(HotpathAllocation, SteadyStateInvokeAllocations) {
  // The exact allocation budget of a steady-state MAGE invoke, through the
  // call chain bench/e2e `mobile` makes (invoke_raw(...).then(...)
  // .on_error(...)) with 64-byte args, per round of one invoke to each of
  // 64 sessions:
  //   64  the caller's args Writers (64 bytes: a shared block each);
  //   64  the chase ops, each sharing its block with the caller's future;
  //   64  the futures .then() derives;
  //   54  the InvokeRequest regions of the two-digit names ("session10" to
  //       "session63": 25 bytes, one over Buffer's inline capacity).
  // Everything else is inline or reused: names resolve by hashed probes,
  // the first continuation of a future lives in its state, and the reply
  // cache (64 entries, so the warm-up wraps it) overwrites in place.
  constexpr std::size_t kSessions = 64;
  constexpr std::size_t kTwoDigitNames = kSessions - 10;
  constexpr std::size_t kCacheCapacity = 64;
  sim::Simulation sim{5};
  net::Network net{sim, net::CostModel::modern_lan()};
  const common::NodeId a = net.add_node("a");
  const common::NodeId b = net.add_node("b");
  rmi::Transport ta{net, a, kCacheCapacity};
  rmi::Transport tb{net, b, kCacheCapacity};
  rts::ClassWorld world;
  world.register_class<AllocSession>("Session").methods["work"] =
      rts::MethodEntry{
          [](rts::MageObject& object, const serial::Buffer& args) {
            ++static_cast<AllocSession&>(object).served;
            serial::Writer result(8);
            result.write_u64(args.size());
            return result.take();
          },
          20};
  rts::Directory directory;
  rts::MageServer sa{ta, world, directory};
  rts::MageServer sb{tb, world, directory};
  sa.class_cache().install("Session");
  sb.class_cache().install("Session");
  rts::AsyncClient client{sa};
  std::vector<std::string> names;
  for (std::size_t s = 0; s < kSessions; ++s) {
    names.push_back("session" + std::to_string(s));
    directory.announce({names.back(), "Session", b, true});
    sb.registry().bind(names.back(), std::make_unique<AllocSession>());
  }

  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  const auto round = [&] {
    const std::uint64_t target = completed + kSessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      serial::Writer args(64);
      args.write_fill(static_cast<std::uint8_t>(s), 64);
      client.invoke_raw(names[s], "work", args.take())
          .then([&completed](serial::Buffer& result) {
            if (result.size() == 8) ++completed;
          })
          .on_error([&failed](const std::string&) { ++failed; });
    }
    ASSERT_TRUE(sim.run_until([&] { return completed == target; }));
  };
  // Warm-up: stats handles, event and slab pools, the pending table, and
  // 4x the reply-cache capacity so the server's entry ring has wrapped.
  for (int i = 0; i < 4; ++i) round();
  ASSERT_GT(sim.stats().counter("rmi.reply_cache_evictions"), 0);

  constexpr std::uint64_t kRounds = 10;
  const auto before = alloc_count();
  for (std::uint64_t i = 0; i < kRounds; ++i) round();
  EXPECT_EQ(alloc_count() - before, kRounds * (3 * kSessions + kTwoDigitNames));
  EXPECT_EQ(failed, 0u);
}

// Inline bodies hold their bytes in the handle, so a cross-shard echo moves
// them between workers by value: 8- and 25-byte bodies (inline and shared)
// must come back intact at 2 workers.
TEST(InlineBuffer, SmallEchoBodiesCrossShardsIntact) {
  net::CostModel model = net::CostModel::zero();
  model.propagation_us = 200;
  sim::ShardedSim ssim(2, 7, net::Network::min_link_latency(model));
  net::Network net(ssim, model);
  const common::NodeId a = net.add_node("a");  // shard 0
  const common::NodeId b = net.add_node("b");  // shard 1
  rmi::Transport ta(net, a);
  rmi::Transport tb(net, b);
  const auto echo = common::intern_verb("hp.cross");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });

  constexpr int kCallsPerSize = 64;
  int completed = 0;
  int intact = 0;
  for (const std::size_t size : {std::size_t{8}, std::size_t{25}}) {
    for (int i = 0; i < kCallsPerSize; ++i) {
      serial::Writer w(size);
      w.write_fill(static_cast<std::uint8_t>(i), size);
      std::vector<std::uint8_t> expected(size, static_cast<std::uint8_t>(i));
      ta.call(b, echo, w.take(),
              [&completed, &intact, expected = std::move(expected)](
                  rmi::CallResult r) {
                ++completed;
                if (r.ok && r.body == expected) ++intact;
              });
    }
  }
  ASSERT_TRUE(ssim.run_until(
      [&completed] { return completed == 2 * kCallsPerSize; }, 2));
  EXPECT_EQ(intact, 2 * kCallsPerSize);
  EXPECT_EQ(ssim.counter("rmi.calls"), 2 * kCallsPerSize);
}

// A handler reads its message in place: the header and body it sees are
// the sender's shared buffers themselves, whether the message was
// scheduled on one shard or crossed a mailbox column to another.
TEST(InPlaceDelivery, HandlerSeesTheSendersSharedFragments) {
  net::CostModel model = net::CostModel::zero();
  model.propagation_us = 100;
  sim::Simulation sim{3};
  sim::ShardedSim ssim(2, 3, net::Network::min_link_latency(model));
  const serial::Buffer header(std::vector<std::uint8_t>(40, 0x01));
  const serial::Buffer body(std::vector<std::uint8_t>(512, 0x02));
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "cross-shard" : "same shard");
    auto net = sharded ? std::make_unique<net::Network>(ssim, model)
                       : std::make_unique<net::Network>(sim, model);
    const common::NodeId a = net->add_node("a");  // shard 0
    const common::NodeId b = net->add_node("b");  // shard 1 when sharded
    const std::uint8_t* seen_header = nullptr;
    const std::uint8_t* seen_body = nullptr;
    net->set_handler(b, [&](net::Message& m) {
      seen_header = m.header.data();
      seen_body = m.body.fragment(0).data();
    });
    serial::Buffer::reset_copy_counters();
    net->send(net::Message{a, b, common::intern_verb("hp.inplace"),
                           net::MsgKind::Request, header, body});
    if (sharded) {
      ssim.run_until_idle(2);
    } else {
      sim.run_until_idle();
    }
    EXPECT_EQ(seen_header, header.data());
    EXPECT_EQ(seen_body, body.data());
    EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
  }
}

TEST_F(HotpathRmiFixture, ScatterGatherBodyTravelsIntact) {
  // A multi-fragment body (the proto layer's [fields, payload] shape)
  // arrives as the same fragments, payload storage shared end to end.
  const auto probe = common::intern_verb("hp.sg");
  const serial::Buffer args(std::vector<std::uint8_t>(256, 0x42));
  const std::uint8_t* service_saw = nullptr;
  std::size_t service_fragments = 0;
  tb.register_service(probe, [&](common::NodeId,
                                 const serial::BufferChain& body,
                                 rmi::Replier replier) {
    service_fragments = body.fragments();
    serial::Reader r(body);
    EXPECT_EQ(r.read_string(), "target");
    serial::Buffer nested = r.read_bytes();
    service_saw = nested.data();
    replier.ok(nested);  // bounce the payload back, still by refcount
  });

  serial::ChainWriter w;
  w.write_string("target");
  w.append_payload(args);

  serial::Buffer::reset_copy_counters();
  auto result = ta.call_sync(b, probe, w.take());
  EXPECT_EQ(service_fragments, 2u);
  EXPECT_EQ(service_saw, args.data());  // zero-copy through the whole spine
  EXPECT_EQ(result, args);
  EXPECT_EQ(serial::Buffer::deep_copy_count(), 0u);
}

TEST_F(HotpathRmiFixture, EchoedPayloadAliasesTheRequestBuffer) {
  // Loopback-free proof that the body travels by reference: the service's
  // view of the body is the same storage the caller serialized.
  const auto probe = common::intern_verb("hp.probe");
  const std::uint8_t* service_saw = nullptr;
  tb.register_service(probe, [&service_saw](common::NodeId,
                                            const serial::BufferChain& body,
                                            rmi::Replier replier) {
    service_saw = body.fragment(0).data();
    replier.ok({});
  });
  const serial::Buffer payload(std::vector<std::uint8_t>(64, 1));
  (void)ta.call_sync(b, probe, payload);
  EXPECT_EQ(service_saw, payload.data());
}

TEST_F(HotpathRmiFixture, ReplierIsOneShot) {
  const auto verb = common::intern_verb("hp.double");
  std::optional<rmi::Replier> parked;
  tb.register_service(verb, [&parked](common::NodeId,
                                      const serial::BufferChain&,
                                      rmi::Replier replier) {
    parked = std::move(replier);
  });
  std::optional<rmi::CallResult> result;
  ta.call(b, verb, {}, [&result](rmi::CallResult r) { result = std::move(r); });
  sim.run_until([&parked] { return parked.has_value(); });
  ASSERT_TRUE(parked->armed());
  parked->ok({});
  EXPECT_FALSE(parked->armed());
  EXPECT_THROW(parked->ok({}), common::MageError);  // double reply
  EXPECT_THROW(parked->error("again"), common::MageError);
  sim.run_until([&result] { return result.has_value(); });
  EXPECT_TRUE(result->ok);
}

TEST_F(HotpathRmiFixture, MovedFromReplierThrows) {
  rmi::Replier from;
  EXPECT_THROW(from.ok({}), common::MageError);  // default-constructed
  const auto verb = common::intern_verb("hp.moved");
  tb.register_service(verb, [](common::NodeId, const serial::BufferChain&,
                               rmi::Replier replier) {
    rmi::Replier stolen = std::move(replier);
    EXPECT_FALSE(replier.armed());                  // NOLINT(bugprone-use-after-move)
    EXPECT_THROW(replier.ok({}), common::MageError);  // NOLINT
    stolen.ok({});
  });
  EXPECT_NO_THROW((void)ta.call_sync(b, verb, {}));
}

TEST_F(HotpathRmiFixture, RetryTimersDoNotAccumulate) {
  // Completed calls leave no retransmission event behind, so a storm leaves
  // the event queue empty instead of thousands of dead timers deep.
  const auto verb = common::intern_verb("hp.clean");
  tb.register_service(verb, [](common::NodeId, const serial::BufferChain&,
                               rmi::Replier replier) { replier.ok({}); });
  for (int i = 0; i < 500; ++i) (void)ta.call_sync(b, verb, {});
  EXPECT_EQ(sim.stats().counter("rmi.calls"), 500);
  // Everything completed, so nothing retransmission-related is armed:
  // draining the queue must not advance the clock anywhere near the first
  // retry timeout (a live timer would drag now() to >= 150'000).
  sim.run_until_idle();
  EXPECT_LT(sim.now(), 150'000);
  EXPECT_EQ(sim.stats().counter("rmi.retransmissions"), 0);
}

// The pipelined form: 8 calls in flight to each of 3 peers, 1,000 calls in
// all, each completion issuing the next call to its peer.  Once the last
// reply lands, nothing is left armed, so draining the queue leaves the
// clock at that completion.
TEST(HotpathRmi, PipelinedRetryStateDoesNotAccumulate) {
  sim::Simulation sim{42};
  net::Network net{sim, net::CostModel::zero()};
  const common::NodeId caller = net.add_node("caller");
  rmi::Transport tc{net, caller};
  const auto verb = common::intern_verb("hp.pipelined");
  std::vector<std::unique_ptr<rmi::Transport>> peers;
  for (int p = 0; p < 3; ++p) {
    peers.push_back(std::make_unique<rmi::Transport>(
        net, net.add_node("peer" + std::to_string(p))));
    peers.back()->register_service(
        verb, [](common::NodeId, const serial::BufferChain&,
                 rmi::Replier replier) { replier.ok({}); });
  }

  constexpr int kCalls = 1'000;
  constexpr int kWindow = 8;
  int issued = 0;
  int completed = 0;
  common::SimTime last_completion = -1;
  std::function<void(common::NodeId)> issue = [&](common::NodeId dest) {
    if (issued == kCalls) return;
    ++issued;
    tc.call(dest, verb, {}, [&, dest](rmi::CallResult r) {
      EXPECT_TRUE(r.ok);
      ++completed;
      last_completion = sim.now();
      issue(dest);
    });
  };
  for (int w = 0; w < kWindow; ++w) {
    for (const auto& peer : peers) issue(peer->self());
  }
  sim.run_until_idle();

  EXPECT_EQ(completed, kCalls);
  EXPECT_EQ(sim.stats().counter("rmi.calls"), kCalls);
  EXPECT_EQ(sim.stats().counter("rmi.retransmissions"), 0);
  EXPECT_GT(last_completion, 0);
  EXPECT_EQ(sim.now(), last_completion);
}

}  // namespace
}  // namespace mage
