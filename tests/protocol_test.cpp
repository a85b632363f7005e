// Round-trip tests for every wire-protocol struct, including boundary
// values.  The integration suites exercise these implicitly; these tests
// pin the encoding explicitly so a wire-format change is a visible diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "rts/protocol.hpp"

namespace mage::rts::proto {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char digits[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(digits, sizeof digits, "%02x", b);
    out += digits;
  }
  return out;
}

// An encoded body as "<shape> <fragment sizes> | <hex bytes>": "buffer" for
// a flat Buffer, "chain" for a scatter-gather BufferChain.
std::string wire(const serial::Buffer& body) {
  return "buffer " + std::to_string(body.size()) + " | " + hex(body.span());
}

std::string wire(const serial::BufferChain& body) {
  std::string sizes;
  std::string bytes;
  for (std::size_t i = 0; i < body.fragments(); ++i) {
    if (i > 0) sizes += ',';
    sizes += std::to_string(body.fragment(i).size());
    bytes += hex(body.fragment(i).span());
  }
  return "chain " + sizes + " | " + bytes;
}

// The wire form of `m`, and that of its decoded copy.
template <typename M>
std::pair<std::string, std::string> round_trip(const M& m) {
  const auto body = m.encode();
  return {wire(body), wire(M::decode(body).encode())};
}

// Every message's bytes and fragment split, pinned as literals, including
// the empty-payload forms (a bare length prefix, no payload fragment).  A
// layout change shows up here even when encode and decode change the same
// way; the second check runs every decoder.
TEST(Protocol, WireBytesArePinned) {
  const serial::Buffer five{1, 2, 3, 4, 5};
  const common::NodeId n1{1}, n2{2}, n3{3}, n7{7};
  struct Pin {
    const char* message;
    std::pair<std::string, std::string> wires;  // see round_trip()
    const char* expected;
  };
  const Pin pins[] = {
      {"LookupRequest",
       round_trip(LookupRequest{"geo", 3, 0x0102030405060708}),
       "buffer 19 | 0300000067656f030000000807060504030201"},
      {"LookupReply",
       round_trip(LookupReply{Status::Moved, common::NodeId{9}, "err", 42}),
       "buffer 20 | 0109000000030000006572722a00000000000000"},
      {"ClassCheckRequest", round_trip(ClassCheckRequest{"Counter"}),
       "buffer 11 | 07000000436f756e746572"},
      {"ClassCheckReply", round_trip(ClassCheckReply{true}),
       "buffer 1 | 01"},
      {"FetchClassRequest", round_trip(FetchClassRequest{"Counter"}),
       "buffer 11 | 07000000436f756e746572"},
      {"ClassImage", round_trip(ClassImage{"C", 3}),
       "buffer 12 | 010000004303000000cacaca"},
      {"LoadClassRequest", round_trip(LoadClassRequest{{"X", 2}}),
       "buffer 11 | 010000005802000000caca"},
      {"InstantiateRequest",
       round_trip(InstantiateRequest{"Counter", "c1", true, n3}),
       "buffer 22 | 07000000436f756e7465720200000063310103000000"},
      {"SimpleReply",
       round_trip(SimpleReply{Status::Error, common::kNoNode, "boom", 7}),
       "buffer 21 | 03ffffffff04000000626f6f6d0700000000000000"},
      {"MoveRequest", round_trip(MoveRequest{"obj", n7}),
       "buffer 11 | 030000006f626a07000000"},
      {"TransferRequest",
       round_trip(TransferRequest{"obj", "Counter", true, 5, {1, 2, 3}}),
       "chain 31,3 | "
       "030000006f626a07000000436f756e7465720105000000000000000300000001"
       "0203"},
      {"TransferRequest (empty state)",
       round_trip(TransferRequest{"obj", "Counter", false, 5, {}}),
       "chain 31 | "
       "030000006f626a07000000436f756e74657200050000000000000000000000"},
      {"InvokeRequest", round_trip(InvokeRequest{"s", "work", five}),
       "chain 17,5 | 010000007304000000776f726b050000000102030405"},
      {"InvokeRequest (empty args)",
       round_trip(InvokeRequest{"s", "work", {}}),
       "chain 17 | 010000007304000000776f726b00000000"},
      {"InvokeReply",
       round_trip(InvokeReply{Status::Ok, common::kNoNode, "", 4, {42}}),
       "chain 21,1 | 00ffffffff000000000400000000000000010000002a"},
      {"InvokeReply (empty result)",
       round_trip(InvokeReply{Status::Moved, common::NodeId{11}, "", 6, {}}),
       "chain 21 | 010b00000000000000060000000000000000000000"},
      {"FetchResultRequest", round_trip(FetchResultRequest{"obj"}),
       "buffer 7 | 030000006f626a"},
      {"LockRequest", round_trip(LockRequest{"obj", n2, 0xDEADBEEF}),
       "buffer 19 | 030000006f626a02000000efbeadde00000000"},
      {"LockReply",
       round_trip(LockReply{Status::Ok, n1, 55, LockKind::Move, "", 3}),
       "buffer 26 | 0001000000370000000000000001000000000300000000000000"},
      {"UnlockRequest", round_trip(UnlockRequest{"obj", 99}),
       "buffer 15 | 030000006f626a6300000000000000"},
      {"StaticGetRequest",
       round_trip(StaticGetRequest{"Counter", "total"}),
       "buffer 20 | 07000000436f756e74657205000000746f74616c"},
      {"StaticPutRequest",
       round_trip(StaticPutRequest{"Counter", "total", {1, 2}}),
       "chain 24,2 | 07000000436f756e74657205000000746f74616c020000000102"},
      {"StaticPutRequest (empty value)",
       round_trip(StaticPutRequest{"Counter", "total", {}}),
       "chain 24 | 07000000436f756e74657205000000746f74616c00000000"},
      {"ExecRequest", round_trip(ExecRequest{"C", "o", "m", five, n7}),
       "chain 19,5,4 | "
       "0100000043010000006f010000006d05000000010203040507000000"},
      {"ExecRequest (empty args)",
       round_trip(ExecRequest{"C", "o", "m", {}, n7}),
       "chain 23 | 0100000043010000006f010000006d0000000007000000"},
      {"DiscoverRequest", round_trip(DiscoverRequest{"printer"}),
       "buffer 11 | 070000007072696e746572"},
      {"DiscoverReply", round_trip(DiscoverReply{true, 33.5}),
       "buffer 9 | 010000000000c04040"},
      {"VoteRequest", round_trip(VoteRequest{4, n2}),
       "buffer 12 | 040000000000000002000000"},
      {"VoteReply", round_trip(VoteReply{4, true}),
       "buffer 9 | 040000000000000001"},
      {"HeartbeatRequest", round_trip(HeartbeatRequest{5, n1}),
       "buffer 12 | 050000000000000001000000"},
      {"HeartbeatReply", round_trip(HeartbeatReply{5, false}),
       "buffer 9 | 050000000000000000"},
      {"DirAnnounceRequest",
       round_trip(DirAnnounceRequest{{"obj", "Counter", n3, true, 8}}),
       "buffer 31 | "
       "030000006f626a07000000436f756e74657203000000010800000000000000"},
      {"DirAnnounceReply",
       round_trip(DirAnnounceReply{Status::Moved, n2, 0, "not leader"}),
       "buffer 27 | 010200000000000000000000000a0000006e6f74206c6561646572"},
      {"DirResolveRequest", round_trip(DirResolveRequest{"obj"}),
       "buffer 7 | 030000006f626a"},
      {"DirResolveReply",
       round_trip(DirResolveReply{Status::Ok, n3, 8, n1, ""}),
       "buffer 21 | 000300000008000000000000000100000000000000"},
      {"ManifestRequest", round_trip(ManifestRequest{"part."}),
       "buffer 9 | 05000000706172742e"},
      {"ManifestReply", round_trip(ManifestReply{{{"a", 1}, {"bc", 2}}}),
       "buffer 31 | "
       "02000000010000006101000000000000000200000062630200000000000000"},
      {"LoadReply", round_trip(LoadReply{101.25}),
       "buffer 8 | 0000000000505940"},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.wires.first, pin.expected) << pin.message;
    EXPECT_EQ(pin.wires.second, pin.expected)
        << pin.message << ", decoded and encoded again";
  }
}

TEST(Protocol, LookupRequestRoundTrip) {
  LookupRequest v;
  v.name = "geoData";
  v.hops = 17;
  const auto decoded = LookupRequest::decode(v.encode());
  EXPECT_EQ(decoded.name, "geoData");
  EXPECT_EQ(decoded.hops, 17u);
}

TEST(Protocol, LookupReplyRoundTrip) {
  LookupReply v;
  v.status = Status::Ok;
  v.host = common::NodeId{9};
  const auto decoded = LookupReply::decode(v.encode());
  EXPECT_EQ(decoded.status, Status::Ok);
  EXPECT_EQ(decoded.host, common::NodeId{9});
}

TEST(Protocol, LookupReplyErrorRoundTrip) {
  LookupReply v;
  v.status = Status::Error;
  v.error = "cycle";
  const auto decoded = LookupReply::decode(v.encode());
  EXPECT_EQ(decoded.status, Status::Error);
  EXPECT_EQ(decoded.error, "cycle");
}

TEST(Protocol, ClassCheckRoundTrip) {
  EXPECT_EQ(ClassCheckRequest::decode(
                ClassCheckRequest{"GeoDataFilterImpl"}.encode())
                .class_name,
            "GeoDataFilterImpl");
  ClassCheckReply reply;
  reply.cached = true;
  EXPECT_TRUE(ClassCheckReply::decode(reply.encode()).cached);
}

TEST(Protocol, ClassImageCarriesItsCodeBytes) {
  ClassImage v;
  v.class_name = "Counter";
  v.code_size = 4096;
  const auto bytes = v.encode();
  // name(4+7) + size(4) + filler(4096)
  EXPECT_GE(bytes.size(), 4096u + 11u);
  const auto decoded = ClassImage::decode(bytes);
  EXPECT_EQ(decoded.class_name, "Counter");
  EXPECT_EQ(decoded.code_size, 4096u);
}

TEST(Protocol, ClassImageEmpty) {
  ClassImage v;
  v.class_name = "Tiny";
  v.code_size = 0;
  const auto decoded = ClassImage::decode(v.encode());
  EXPECT_EQ(decoded.code_size, 0u);
}

TEST(Protocol, LoadClassRoundTrip) {
  LoadClassRequest v;
  v.image.class_name = "X";
  v.image.code_size = 128;
  EXPECT_EQ(LoadClassRequest::decode(v.encode()).image.class_name, "X");
}

TEST(Protocol, InstantiateRoundTrip) {
  InstantiateRequest v;
  v.class_name = "Counter";
  v.object_name = "c1";
  v.is_public = true;
  v.class_source = common::NodeId{3};
  const auto decoded = InstantiateRequest::decode(v.encode());
  EXPECT_EQ(decoded.class_name, "Counter");
  EXPECT_EQ(decoded.object_name, "c1");
  EXPECT_TRUE(decoded.is_public);
  EXPECT_EQ(decoded.class_source, common::NodeId{3});
}

TEST(Protocol, SimpleReplyAllStatuses) {
  for (auto status : {Status::Ok, Status::Moved, Status::NotFound,
                      Status::Error}) {
    SimpleReply v;
    v.status = status;
    v.hint = common::NodeId{4};
    v.error = "e";
    const auto decoded = SimpleReply::decode(v.encode());
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.hint, common::NodeId{4});
  }
}

TEST(Protocol, MoveRoundTrip) {
  MoveRequest v;
  v.name = "obj";
  v.to = common::NodeId{7};
  const auto decoded = MoveRequest::decode(v.encode());
  EXPECT_EQ(decoded.name, "obj");
  EXPECT_EQ(decoded.to, common::NodeId{7});
}

TEST(Protocol, TransferCarriesState) {
  TransferRequest v;
  v.name = "obj";
  v.class_name = "Counter";
  v.is_public = true;
  v.state = {1, 2, 3, 4, 5};
  const auto decoded = TransferRequest::decode(v.encode());
  EXPECT_EQ(decoded.state, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(decoded.is_public);
}

TEST(Protocol, TransferEmptyState) {
  TransferRequest v;
  v.name = "o";
  v.class_name = "C";
  EXPECT_TRUE(TransferRequest::decode(v.encode()).state.empty());
}

TEST(Protocol, InvokeRoundTrip) {
  InvokeRequest v;
  v.name = "obj";
  v.method = "filterData";
  v.args = {9, 8, 7};
  const auto decoded = InvokeRequest::decode(v.encode());
  EXPECT_EQ(decoded.method, "filterData");
  EXPECT_EQ(decoded.args, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(Protocol, InvokeReplyWithResult) {
  InvokeReply v;
  v.status = Status::Ok;
  v.result = {42};
  const auto decoded = InvokeReply::decode(v.encode());
  EXPECT_EQ(decoded.result, std::vector<std::uint8_t>{42});
}

TEST(Protocol, InvokeReplyMovedHint) {
  InvokeReply v;
  v.status = Status::Moved;
  v.hint = common::NodeId{11};
  const auto decoded = InvokeReply::decode(v.encode());
  EXPECT_EQ(decoded.status, Status::Moved);
  EXPECT_EQ(decoded.hint, common::NodeId{11});
}

TEST(Protocol, FetchResultRoundTrip) {
  EXPECT_EQ(FetchResultRequest::decode(FetchResultRequest{"obj"}.encode())
                .name,
            "obj");
}

TEST(Protocol, LockRoundTrip) {
  LockRequest v;
  v.name = "obj";
  v.target = common::NodeId{2};
  v.activity = 0xDEADBEEFull;
  const auto decoded = LockRequest::decode(v.encode());
  EXPECT_EQ(decoded.target, common::NodeId{2});
  EXPECT_EQ(decoded.activity, 0xDEADBEEFull);
}

TEST(Protocol, LockReplyRoundTrip) {
  LockReply v;
  v.status = Status::Ok;
  v.lock_id = 55;
  v.kind = LockKind::Move;
  const auto decoded = LockReply::decode(v.encode());
  EXPECT_EQ(decoded.lock_id, 55u);
  EXPECT_EQ(decoded.kind, LockKind::Move);
}

TEST(Protocol, UnlockRoundTrip) {
  UnlockRequest v;
  v.name = "obj";
  v.lock_id = 99;
  EXPECT_EQ(UnlockRequest::decode(v.encode()).lock_id, 99u);
}

TEST(Protocol, StaticGetPutRoundTrip) {
  StaticGetRequest g{"Counter", "total"};
  const auto dg = StaticGetRequest::decode(g.encode());
  EXPECT_EQ(dg.class_name, "Counter");
  EXPECT_EQ(dg.key, "total");

  StaticPutRequest p;
  p.class_name = "Counter";
  p.key = "total";
  p.value = {1, 2};
  const auto dp = StaticPutRequest::decode(p.encode());
  EXPECT_EQ(dp.value, (std::vector<std::uint8_t>{1, 2}));
}

TEST(Protocol, ExecRoundTrip) {
  ExecRequest v;
  v.class_name = "Integrator";
  v.object_name = "unit0";
  v.method = "integrate";
  v.args = {3, 1, 4};
  v.class_source = common::NodeId{1};
  const auto decoded = ExecRequest::decode(v.encode());
  EXPECT_EQ(decoded.class_name, "Integrator");
  EXPECT_EQ(decoded.object_name, "unit0");
  EXPECT_EQ(decoded.method, "integrate");
  EXPECT_EQ(decoded.args, (std::vector<std::uint8_t>{3, 1, 4}));
}

TEST(Protocol, DiscoverRoundTrip) {
  EXPECT_EQ(DiscoverRequest::decode(DiscoverRequest{"printer"}.encode())
                .kind,
            "printer");
  DiscoverReply reply;
  reply.offers = true;
  reply.capacity = 33.5;
  const auto decoded = DiscoverReply::decode(reply.encode());
  EXPECT_TRUE(decoded.offers);
  EXPECT_DOUBLE_EQ(decoded.capacity, 33.5);
}

TEST(Protocol, LoadReplyRoundTrip) {
  LoadReply v;
  v.load = 101.25;
  EXPECT_DOUBLE_EQ(LoadReply::decode(v.encode()).load, 101.25);
}

TEST(Protocol, StatusNames) {
  EXPECT_STREQ(status_name(Status::Ok), "Ok");
  EXPECT_STREQ(status_name(Status::Moved), "Moved");
  EXPECT_STREQ(status_name(Status::NotFound), "NotFound");
  EXPECT_STREQ(status_name(Status::Error), "Error");
}

TEST(Protocol, NodeCodecSentinel) {
  MoveRequest v;
  v.name = "obj";
  v.to = common::kNoNode;
  EXPECT_TRUE(common::is_no_node(MoveRequest::decode(v.encode()).to));
}

TEST(Protocol, DecodesMessagesInSequenceFromOneReader) {
  serial::BufferChain chain;
  chain.append(LookupRequest{"a", 1, 2}.encode());
  chain.append(MoveRequest{"b", common::NodeId{7}}.encode());
  serial::ChainReader r(chain);
  EXPECT_EQ(LookupRequest::decode(r).min_epoch, 2u);
  EXPECT_EQ(MoveRequest::decode(r).to, common::NodeId{7});
  EXPECT_TRUE(r.at_end());
}

TEST(Protocol, NamesWithUnicodeAndNulls) {
  LookupRequest v;
  v.name = std::string("g\0o\xC3\xA9", 5);
  EXPECT_EQ(LookupRequest::decode(v.encode()).name, v.name);
}

}  // namespace
}  // namespace mage::rts::proto
