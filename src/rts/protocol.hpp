// MAGE wire protocol: verbs and message bodies.
//
// Every struct encodes to / decodes from the RMI envelope body.  The verbs
// are the operations MageServer registers with its Transport; together they
// implement the protocols of Section 4 — registry lookup with forwarding
// chains (4.1), class shipping and object migration (4.2, 4.3/Figure 7),
// invocation, and lock requests (4.4/Figure 8).
//
// Each struct lists its fields once, in wire order, in a static fields()
// function, and encode() and decode() both derive from that list through
// the one field codec below (namespace wire), so a message's layout is
// written in one place.  A struct that carries a pre-serialized payload
// (invocation args, migrating object state, results, static values)
// encodes to a serial::BufferChain: the payload rides as its own fragment
// by refcount instead of being copied into the body.  Every other struct
// encodes through one flat Writer to a serial::Buffer.  The logical byte
// stream is the same either way (the chain just fragments it), so decode()
// accepts a flat Buffer (tests, tools), the BufferChain a service
// receives, or a ChainReader.  docs/WIRE_FORMAT.md records the byte-level
// layouts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/verb.hpp"
#include "rts/lock_manager.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace mage::rts::proto {

// Operation names.  The ".reply"-suffixed verbs on the wire are added by
// the transport; these are the request verbs.
namespace verbs {
inline const common::VerbId kLookup = common::intern_verb("mage.lookup");
inline const common::VerbId kClassCheck = common::intern_verb("mage.class_check");
inline const common::VerbId kFetchClass = common::intern_verb("mage.fetch_class");
inline const common::VerbId kLoadClass = common::intern_verb("mage.load_class");
inline const common::VerbId kInstantiate = common::intern_verb("mage.instantiate");
inline const common::VerbId kMove = common::intern_verb("mage.move");
inline const common::VerbId kTransfer = common::intern_verb("mage.transfer");
inline const common::VerbId kInvoke = common::intern_verb("mage.invoke");
inline const common::VerbId kInvokeOneway = common::intern_verb("mage.invoke_oneway");
inline const common::VerbId kFetchResult = common::intern_verb("mage.fetch_result");
inline const common::VerbId kLock = common::intern_verb("mage.lock");
inline const common::VerbId kUnlock = common::intern_verb("mage.unlock");
inline const common::VerbId kGetLoad = common::intern_verb("mage.get_load");
inline const common::VerbId kPing = common::intern_verb("mage.ping");
// Traditional REV's per-bind lookup of the remote execution server's stub
// (Naming.lookup against the target's RMI registry).
inline const common::VerbId kResolveServer = common::intern_verb("mage.resolve_server");
// Static-field coherency (the Section 4.2 limitation, implemented): class
// data lives at the class's statics home and is read/written there.
inline const common::VerbId kStaticGet = common::intern_verb("mage.static_get");
inline const common::VerbId kStaticPut = common::intern_verb("mage.static_put");
// Resource discovery ("support host and resource discovery", Section 1).
inline const common::VerbId kDiscover = common::intern_verb("mage.discover");
// Condensed remote evaluation — the Section 5 optimization: "condensing
// the number of RMI calls ... by better utilizing the in and out variables
// of a single Java RMI call".  One exchange carries instantiate + invoke.
inline const common::VerbId kExec = common::intern_verb("mage.exec");
// Partition ops for the distributed collections (src/rts/dist/): list
// the components bound on a node, so a rebalancer can pick a migration
// victim from the hot node's authoritative local view.
inline const common::VerbId kManifest = common::intern_verb("mage.manifest");
// Replicated directory control plane (the Section 7 static-home fix):
// leader election among the director quorum, plus placement-record
// announce/resolve/replicate.
inline const common::VerbId kRequestVote = common::intern_verb("dir.request_vote");
inline const common::VerbId kHeartbeat = common::intern_verb("dir.heartbeat");
inline const common::VerbId kDirAnnounce = common::intern_verb("dir.announce");
inline const common::VerbId kDirResolve = common::intern_verb("dir.resolve");
inline const common::VerbId kDirReplicate = common::intern_verb("dir.replicate");
}  // namespace verbs

// Shared status for operations addressed to "the node currently hosting X":
// the host may answer Ok, or redirect the caller along its forwarding chain
// (Moved + hint), or declare the name unknown.
enum class Status : std::uint8_t {
  Ok = 0,
  Moved = 1,     // not here; try `hint`
  NotFound = 2,  // unknown name, no forwarding information
  Error = 3,     // application-level failure, see `error`
};

[[nodiscard]] inline const char* status_name(Status s) {
  switch (s) {
    case Status::Ok:
      return "Ok";
    case Status::Moved:
      return "Moved";
    case Status::NotFound:
      return "NotFound";
    case Status::Error:
      return "Error";
  }
  return "?";
}

// --- field codec -------------------------------------------------------------
//
// One rule per field type, applied in the order fields() lists them:
//   std::string            str (u32 length, bytes)
//   bool, one-byte enum    u8
//   common::NodeId         u32
//   u32, u64, double       fixed width
//   serial::Buffer         bytes; a ChainWriter splices the payload in as
//                          its own fragment (an empty one adds none)
//   nested message, pair   its own fields (a pair's are first, second)
//   std::vector            u32 count, then the entries
//   CodeFiller             u32 size, then that many filler bytes, which
//                          decode skips after reading the size
namespace wire {

// ClassImage's stand-in for class-file bytes, so the simulated wire pays
// the real transfer cost of shipping a class.
template <typename Size>
struct CodeFiller {
  Size& size;
};
inline constexpr std::uint8_t kFillerByte = 0xCA;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename E>
inline constexpr bool kIsVector<std::vector<E>> = true;
template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <typename T>
inline constexpr bool kIsFiller = false;
template <typename S>
inline constexpr bool kIsFiller<CodeFiller<S>> = true;

template <typename T>
auto fields_of(T& v) {
  using Plain = std::remove_const_t<T>;
  if constexpr (kIsPair<Plain>) {
    return std::tie(v.first, v.second);
  } else {
    return Plain::fields(v);
  }
}

// Writes `v` to `w`: a serial::Writer, a serial::ChainWriter, or a
// SizeCounter.
template <typename W, typename T>
void put(W& w, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    w.write_string(v);
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "an enum field must be one byte wide");
    w.write_u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, common::NodeId>) {
    w.write_u32(v.value());
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.write_u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.write_u64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.write_f64(v);
  } else if constexpr (std::is_same_v<T, serial::Buffer>) {
    w.append_payload(v);
  } else if constexpr (kIsFiller<T>) {
    w.write_u32(v.size);
    w.write_fill(kFillerByte, v.size);
  } else if constexpr (kIsVector<T>) {
    w.write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& entry : v) wire::put(w, entry);
  } else {
    std::apply([&w](const auto&... f) { (wire::put(w, f), ...); },
               fields_of(v));
  }
}

// A writer that only counts bytes, payload fragments excluded: put() into
// it sizes a body so encode() allocates once, and put() of a default value
// gives a list entry's smallest wire size.
struct SizeCounter {
  std::size_t size = 0;

  void write_u8(std::uint8_t) { size += 1; }
  void write_u32(std::uint32_t) { size += 4; }
  void write_u64(std::uint64_t) { size += 8; }
  void write_f64(double) { size += 8; }
  void write_string(std::string_view v) { size += 4 + v.size(); }
  void write_fill(std::uint8_t, std::size_t count) { size += count; }
  void append_payload(const serial::Buffer&) { size += 4; }
};

// Reads `v` from `r`, mirror of put().
template <typename T>
void get(serial::ChainReader& r, T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    v = r.read_string();
  } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    v = static_cast<T>(r.read_u8());
  } else if constexpr (std::is_same_v<T, common::NodeId>) {
    v = common::NodeId{r.read_u32()};
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.read_u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.read_u64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.read_f64();
  } else if constexpr (std::is_same_v<T, serial::Buffer>) {
    v = r.read_bytes();
  } else if constexpr (kIsFiller<T>) {
    v.size = r.read_u32();
    r.skip(v.size);  // bounds-checked before it moves
  } else if constexpr (kIsVector<T>) {
    const std::uint32_t count = r.read_u32();
    // Bound the wire's count by the bytes left before reserving, so a
    // corrupt count raises SerializationError, never a giant allocation.
    SizeCounter entry;
    wire::put(entry, typename T::value_type{});
    if (std::uint64_t{count} * entry.size > r.remaining()) {
      throw common::SerializationError(
          "list of " + std::to_string(count) + " entries of at least " +
          std::to_string(entry.size) + " bytes, but " +
          std::to_string(r.remaining()) + " bytes remain");
    }
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) wire::get(r, v.emplace_back());
  } else {
    std::apply([&r](auto&&... f) { (wire::get(r, f), ...); },
               fields_of(v));
  }
}

// Whether a T holds a serial::Buffer payload in any of its fields.
template <typename T>
constexpr bool has_payload() {
  if constexpr (std::is_same_v<T, serial::Buffer>) {
    return true;
  } else if constexpr (kIsVector<T>) {
    return has_payload<typename T::value_type>();
  } else if constexpr (kIsPair<T> || requires(T& m) { T::fields(m); }) {
    return []<typename... F>(std::tuple<F...>*) {
      return (has_payload<std::remove_cvref_t<F>>() || ...);
    }(static_cast<decltype(fields_of(std::declval<T&>()))*>(nullptr));
  } else {
    return false;
  }
}

// A message's body: a BufferChain whose payloads ride as their own
// fragments when it has any, else one flat Buffer.  Either way the body is
// sized first, so each Writer region allocates once.
template <typename M>
auto encode(const M& m) {
  using W = std::conditional_t<has_payload<M>(), serial::ChainWriter,
                               serial::Writer>;
  SizeCounter size;
  wire::put(size, m);
  W w(size.size);
  wire::put(w, m);
  return w.take();
}

template <typename M>
M decode(serial::ChainReader& r) {
  M m;
  wire::get(r, m);
  return m;
}

// `bytes` is a serial::Buffer or a serial::BufferChain.
template <typename M, typename Bytes>
M decode(const Bytes& bytes) {
  serial::ChainReader r(bytes);
  return decode<M>(r);
}

}  // namespace wire

// --- registry lookup ---------------------------------------------------

struct LookupRequest {
  common::ComponentName name;
  std::uint32_t hops = 0;  // cycle guard for the forwarding-chain walk
  // Epoch fence: the highest placement epoch the caller has confirmed for
  // this name.  A node whose forwarding knowledge is older answers
  // NotFound instead of sending the caller down a stale chain.  0 = no
  // fence (legacy callers).
  std::uint64_t min_epoch = 0;

  static auto fields(auto& m) { return std::tie(m.name, m.hops, m.min_epoch); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<LookupRequest>(in); }
};

struct LookupReply {
  Status status = Status::NotFound;
  common::NodeId host = common::kNoNode;  // valid when Ok
  std::string error;
  // Placement epoch of `host` (see LookupRequest::min_epoch); 0 = unknown.
  std::uint64_t epoch = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.host, m.error, m.epoch);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<LookupReply>(in); }
};

// --- class shipping ------------------------------------------------------

struct ClassCheckRequest {
  std::string class_name;

  static auto fields(auto& m) { return std::tie(m.class_name); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<ClassCheckRequest>(in); }
};

struct ClassCheckReply {
  bool cached = false;  // does the queried node hold the class image?

  static auto fields(auto& m) { return std::tie(m.cached); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<ClassCheckReply>(in); }
};

struct FetchClassRequest {
  std::string class_name;

  static auto fields(auto& m) { return std::tie(m.class_name); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<FetchClassRequest>(in); }
};

// The class image: name + simulated code bytes (filler sized to the
// descriptor's code_size so the wire pays the real transfer cost).
struct ClassImage {
  std::string class_name;
  std::uint32_t code_size = 0;

  static auto fields(auto& m) {
    return std::make_tuple(std::ref(m.class_name),
                           wire::CodeFiller{m.code_size});
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<ClassImage>(in); }
};

// Push-style class load (REV/MA push the class toward the target).
struct LoadClassRequest {
  ClassImage image;

  static auto fields(auto& m) { return std::tie(m.image); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<LoadClassRequest>(in); }
};

// --- instantiation (class-bound REV/COD act as object factories) -----------

struct InstantiateRequest {
  std::string class_name;
  common::ComponentName object_name;
  bool is_public = false;
  // Node able to serve the class image if the target lacks it.
  common::NodeId class_source = common::kNoNode;

  static auto fields(auto& m) {
    return std::tie(m.class_name, m.object_name, m.is_public, m.class_source);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<InstantiateRequest>(in); }
};

struct SimpleReply {
  Status status = Status::Ok;
  common::NodeId hint = common::kNoNode;  // valid when Moved
  std::string error;
  // Placement epoch backing `hint` (Moved), or the new epoch of a
  // completed operation (e.g. a move's Ok reply carries the migrated
  // object's epoch).  0 = unfenced.
  std::uint64_t hint_epoch = 0;

  static auto fields(auto& m) {
    return std::tie(m.status, m.hint, m.error, m.hint_epoch);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<SimpleReply>(in); }
};

// --- migration (Figure 7) ---------------------------------------------------

struct MoveRequest {
  common::ComponentName name;
  common::NodeId to = common::kNoNode;

  static auto fields(auto& m) { return std::tie(m.name, m.to); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<MoveRequest>(in); }
};

struct TransferRequest {
  common::ComponentName name;
  std::string class_name;
  bool is_public = false;
  // Placement epoch the destination binds the object at (source's epoch +
  // 1); fences stale Moved hints behind this migration.
  std::uint64_t epoch = 0;
  serial::Buffer state;  // weakly migrated heap state

  // Scatter-gather: `state` rides as its own fragment, uncopied.
  static auto fields(auto& m) {
    return std::tie(m.name, m.class_name, m.is_public, m.epoch, m.state);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<TransferRequest>(in); }
};

// --- invocation ---------------------------------------------------------

struct InvokeRequest {
  common::ComponentName name;
  std::string method;
  serial::Buffer args;

  // Scatter-gather: `args` rides as its own fragment, uncopied.
  static auto fields(auto& m) { return std::tie(m.name, m.method, m.args); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<InvokeRequest>(in); }
};

struct InvokeReply {
  Status status = Status::Ok;
  common::NodeId hint = common::kNoNode;  // valid when Moved
  std::string error;                      // valid when Error
  std::uint64_t hint_epoch = 0;           // placement epoch backing `hint`
  serial::Buffer result;                  // valid when Ok

  // Scatter-gather: `result` rides as its own fragment, uncopied.
  static auto fields(auto& m) {
    return std::tie(m.status, m.hint, m.error, m.hint_epoch, m.result);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<InvokeReply>(in); }
};

struct FetchResultRequest {
  common::ComponentName name;

  static auto fields(auto& m) { return std::tie(m.name); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<FetchResultRequest>(in); }
};

// --- locking -------------------------------------------------------------

struct LockRequest {
  common::ComponentName name;
  common::NodeId target = common::kNoNode;  // the attribute's target
  std::uint64_t activity = 0;

  static auto fields(auto& m) { return std::tie(m.name, m.target, m.activity); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<LockRequest>(in); }
};

struct LockReply {
  Status status = Status::Ok;
  common::NodeId hint = common::kNoNode;  // valid when Moved
  std::uint64_t lock_id = 0;              // valid when Ok
  LockKind kind = LockKind::Stay;         // valid when Ok
  std::string error;
  std::uint64_t hint_epoch = 0;           // placement epoch backing `hint`

  static auto fields(auto& m) {
    return std::tie(m.status, m.hint, m.lock_id, m.kind, m.error, m.hint_epoch);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<LockReply>(in); }
};

struct UnlockRequest {
  common::ComponentName name;
  std::uint64_t lock_id = 0;

  static auto fields(auto& m) { return std::tie(m.name, m.lock_id); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<UnlockRequest>(in); }
};

// --- class statics ------------------------------------------------------------

struct StaticGetRequest {
  std::string class_name;
  std::string key;

  static auto fields(auto& m) { return std::tie(m.class_name, m.key); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<StaticGetRequest>(in); }
};

struct StaticPutRequest {
  std::string class_name;
  std::string key;
  serial::Buffer value;

  // Scatter-gather: `value` rides as its own fragment, uncopied.
  static auto fields(auto& m) {
    return std::tie(m.class_name, m.key, m.value);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<StaticPutRequest>(in); }
};

// --- condensed remote evaluation --------------------------------------------------

struct ExecRequest {
  std::string class_name;
  common::ComponentName object_name;  // bound at the target after the call
  std::string method;
  serial::Buffer args;
  common::NodeId class_source = common::kNoNode;

  // Scatter-gather: `args` rides as its own fragment, uncopied (the
  // class_source field follows in a trailing fragment).
  static auto fields(auto& m) {
    return std::tie(m.class_name, m.object_name, m.method, m.args,
                    m.class_source);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<ExecRequest>(in); }
};

// --- resource discovery ---------------------------------------------------------

struct DiscoverRequest {
  std::string kind;

  static auto fields(auto& m) { return std::tie(m.kind); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<DiscoverRequest>(in); }
};

struct DiscoverReply {
  bool offers = false;
  double capacity = 0.0;

  static auto fields(auto& m) { return std::tie(m.offers, m.capacity); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<DiscoverReply>(in); }
};

// --- replicated directory & election ----------------------------------------
//
// The director quorum's control-plane messages (docs/ARCHITECTURE.md,
// "Replicated directory & election").  Election messages are term-based;
// placement records carry the same epoch fence the forwarding chain uses.

struct VoteRequest {
  std::uint64_t term = 0;
  common::NodeId candidate = common::kNoNode;

  static auto fields(auto& m) { return std::tie(m.term, m.candidate); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<VoteRequest>(in); }
};

struct VoteReply {
  std::uint64_t term = 0;
  bool granted = false;

  static auto fields(auto& m) { return std::tie(m.term, m.granted); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<VoteReply>(in); }
};

struct HeartbeatRequest {
  std::uint64_t term = 0;
  common::NodeId leader = common::kNoNode;

  static auto fields(auto& m) { return std::tie(m.term, m.leader); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<HeartbeatRequest>(in); }
};

struct HeartbeatReply {
  std::uint64_t term = 0;
  bool ok = false;

  static auto fields(auto& m) { return std::tie(m.term, m.ok); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<HeartbeatReply>(in); }
};

// One replicated placement fact: where `name` lives as of `epoch`.
struct PlacementRecord {
  common::ComponentName name;
  std::string class_name;
  common::NodeId host = common::kNoNode;
  bool is_public = false;
  std::uint64_t epoch = 0;

  static auto fields(auto& m) {
    return std::tie(m.name, m.class_name, m.host, m.is_public, m.epoch);
  }
};

// kDirAnnounce (leader-only; followers answer Moved + leader hint) and
// kDirReplicate (leader -> follower fan-out) share this body.
struct DirAnnounceRequest {
  PlacementRecord record;

  static auto fields(auto& m) { return std::tie(m.record); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<DirAnnounceRequest>(in); }
};

struct DirAnnounceReply {
  Status status = Status::Ok;
  common::NodeId leader = common::kNoNode;  // best-known leader (any status)
  std::uint64_t epoch = 0;                  // epoch stored, when Ok
  std::string error;

  static auto fields(auto& m) {
    return std::tie(m.status, m.leader, m.epoch, m.error);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<DirAnnounceReply>(in); }
};

struct DirResolveRequest {
  common::ComponentName name;

  static auto fields(auto& m) { return std::tie(m.name); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<DirResolveRequest>(in); }
};

struct DirResolveReply {
  Status status = Status::NotFound;
  common::NodeId host = common::kNoNode;    // valid when Ok
  std::uint64_t epoch = 0;                  // valid when Ok
  common::NodeId leader = common::kNoNode;  // best-known leader (any status)
  std::string error;

  static auto fields(auto& m) {
    return std::tie(m.status, m.host, m.epoch, m.leader, m.error);
  }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<DirResolveReply>(in); }
};

// --- partition manifests (distributed collections) ---------------------------

// "Which components live on you right now?"  The queried node answers from
// its registry — names filtered by prefix, each with its placement epoch —
// which is how rts::Rebalancer picks a partition to migrate off a hot node
// without trusting a possibly-stale client-side table.
struct ManifestRequest {
  std::string prefix;

  static auto fields(auto& m) { return std::tie(m.prefix); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<ManifestRequest>(in); }
};

struct ManifestReply {
  // (component name, placement epoch), in registry (lexicographic) order.
  std::vector<std::pair<common::ComponentName, std::uint64_t>> entries;

  static auto fields(auto& m) { return std::tie(m.entries); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<ManifestReply>(in); }
};

// --- misc ------------------------------------------------------------------

struct LoadReply {
  double load = 0.0;

  static auto fields(auto& m) { return std::tie(m.load); }
  [[nodiscard]] auto encode() const { return wire::encode(*this); }
  static auto decode(auto&& in) { return wire::decode<LoadReply>(in); }
};

}  // namespace mage::rts::proto
