// Per-node RMI endpoint.
//
// One Transport is attached to each namespace's network node.  It provides:
//
//   * `call(dest, verb, body, callback)` — asynchronous remote invocation
//     with retransmission on timeout and exactly-one completion of the
//     callback (result, remote error, or transport error after the retry
//     budget is exhausted);
//   * `register_service(verb, service)` — server-side dispatch.  A service
//     may reply immediately or hold its Replier and reply later, which is
//     how multi-party protocols (object move, class fetch, forwarding-chain
//     walks) are written without nested blocking;
//   * at-most-once execution: duplicate requests (retransmissions) never
//     re-execute a service; completed requests re-send the cached reply,
//     in-progress requests are ignored (the eventual reply will answer all
//     copies).
//
// Retransmission (docs/ARCHITECTURE.md "Retransmission"): a call does not
// arm a timer of its own.  Each distinct retry_timeout_us on a transport is
// one timeout class: a FIFO ring of (deadline, event sequence number,
// request id), one entry per transmission, and at most one armed event,
// keyed like the head entry.  A reply or cancel tombstones its entry; the
// event is cancelled only when no transmitted call of the class is pending.
//
// Hot-path layout: verbs are interned VerbIds (dispatch is a vector index);
// bodies are BufferChains of ref-counted fragments, so a steady-state call
// copies no payload bytes; pending calls and the reply cache are
// open-addressed flat tables that stop growing once the reply cache has
// wrapped, so the steady-state receive path never allocates; envelopes
// waiting out a CPU cost sit in slots (parked_).
//
// Cost accounting per the CostModel: the caller is charged client overhead
// plus marshalling before the request hits the wire; the callee is charged
// dispatch plus unmarshalling before the service runs, and nothing for its
// reply.  Every successful call increments "rmi.calls" — the unit the
// paper uses to explain Table 3.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "common/function.hpp"
#include "common/ids.hpp"
#include "common/slab.hpp"
#include "common/verb.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"

namespace mage::rmi {

// Outcome of one RMI call, exactly one of which reaches the callback.
struct CallResult {
  bool ok = false;
  std::string error;          // set when !ok
  serial::BufferChain body;   // set when ok

  static CallResult failure(std::string error) {
    return CallResult{false, std::move(error), {}};
  }
};

// Error families of a failed call.  The wire carries only a string, so the
// family is a marker prefix: the transport tags its own give-ups "rmi call",
// and servers tag policy rejections "access denied" / "capacity exceeded".
enum class ErrorKind { Transport, AccessDenied, CapacityExceeded, Remote };

// The one place that parses those prefixes.
[[nodiscard]] ErrorKind error_kind(std::string_view error);

// Throws the typed exception for `error`: TransportError, AccessDeniedError,
// CapacityError, or RemoteInvocationError for everything else.
[[noreturn]] void throw_error(const std::string& error);

class Transport;

// Handle a service uses to answer one request.  Move-only and strictly
// one-shot: replying a second time (or through a moved-from handle) throws
// MageError — a service that double-replies is a protocol bug, not a
// recoverable condition.
class Replier {
 public:
  Replier() = default;
  Replier(Transport* transport, common::NodeId to, common::RequestId id,
          common::VerbId verb)
      : transport_(transport), id_(id), to_(to), verb_(verb) {}

  Replier(Replier&& other) noexcept { steal(other); }
  Replier& operator=(Replier&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }
  Replier(const Replier&) = delete;
  Replier& operator=(const Replier&) = delete;

  void ok(serial::BufferChain body);
  void error(const std::string& message);

  [[nodiscard]] common::NodeId caller() const { return to_; }
  // True until the reply has been sent (false for default-constructed and
  // moved-from handles).
  [[nodiscard]] bool armed() const { return transport_ != nullptr; }

 private:
  void steal(Replier& other) {
    transport_ = other.transport_;
    to_ = other.to_;
    id_ = other.id_;
    verb_ = other.verb_;
    other.transport_ = nullptr;
  }
  // Returns the transport exactly once; throws on reuse.
  Transport* fire();

  Transport* transport_ = nullptr;
  common::RequestId id_;
  common::NodeId to_;
  common::VerbId verb_;
};

// Transport::call and rmi::call reject (MageError) a timeout below 1us or
// fewer than 1 attempt.
struct CallOptions {
  common::SimDuration retry_timeout_us = 150'000;  // 150 simulated ms
  int max_attempts = 24;
};

// Throws MageError, naming `verb` and both values, when `options` cannot be
// honoured: retry_timeout_us < 1 or max_attempts < 1.
void check_call_options(common::VerbId verb, const CallOptions& options);

// Per-link invoke coalescing (docs/ARCHITECTURE.md "Flush quanta").  When
// enabled, every outgoing envelope (requests, replies, one-ways) bound for
// a remote node is queued per destination and flushed as ONE batch frame
// (Envelope::encode_batch) at the next flush-quantum boundary — so a burst
// of invokes toward one link and the burst of their replies each ride a
// single net::Message (one mailbox push, one wire_seq).  Quantum boundaries
// are absolute multiples of `flush_quantum_us`, which lines batch flushes
// up with the sharded engine's conservative-lookahead windows when the
// quantum equals the lookahead.
struct BatchOptions {
  bool enabled = false;
  // Flush at the next absolute multiple of this quantum (>= 1).
  common::SimDuration flush_quantum_us = 500;
  // Flush immediately once a link's queue holds this many envelopes...
  std::size_t max_batch_invokes = 1024;
  // ...or this many encoded bytes, whichever trips first.
  std::size_t max_batch_bytes = 256 * 1024;
  // Bodies larger than this bypass batching and keep the scatter-gather
  // zero-copy send path (batch frames gather payload bytes by copy).
  std::size_t max_inline_body = 4096;
};

// Adaptive at-most-once reply-cache sizing (ROADMAP item 1).  Opt-in: the
// ring doubles when eviction pressure accumulates (or instantly on an
// observed eviction-caused re-execution) up to `ceiling`, and halves back
// toward `floor` after an idle period with no evictions.  Growth/shrink
// both preserve exact FIFO eviction order.
struct AdaptiveCacheOptions {
  bool enabled = false;
  std::size_t floor = 512;
  std::size_t ceiling = 8192;
  // Evictions accumulated since the last resize that trigger a doubling.
  // Kept low: every eviction below the ceiling risks a duplicate
  // re-execution, so the ring should double after minimal evidence.
  std::int64_t grow_threshold = 2;
  // Halve (toward floor) when no eviction happened for this long.
  common::SimDuration idle_shrink_us = 250'000;
};

class Transport {
 public:
  // Move-only: callbacks routinely capture Buffers and Repliers.
  using Callback = common::UniqueFunction<void(CallResult)>;
  // Service receives the caller's node, the argument body, and a Replier.
  // Multi-shot (std::function): one registration answers many requests.
  using Service = std::function<void(common::NodeId caller,
                                     const serial::BufferChain& body,
                                     Replier replier)>;

  // At-most-once reply-cache depth (cached replies retained per node).
  static constexpr std::size_t kReplyCacheCapacity = 8192;

  // `reply_cache_capacity` bounds the at-most-once cache; benches shrink it
  // to exercise ring eviction under load without 8k-call warmups.
  Transport(net::Network& network, common::NodeId self,
            std::size_t reply_cache_capacity = kReplyCacheCapacity);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] common::NodeId self() const { return self_; }
  [[nodiscard]] net::Network& network() { return network_; }

  void register_service(common::VerbId verb, Service service);
  void register_service(std::string_view verb, Service service) {
    register_service(common::intern_verb(verb), std::move(service));
  }

  // Asynchronous call; `callback` fires exactly once — unless the call is
  // cancel()ed first, in which case it never fires.  The returned id is the
  // cancellation handle (rmi::call uses it; plain callers may ignore it).
  // Throws MageError, naming the verb and the node, when `dest` is not on
  // the network (call_oneway likewise), and check_call_options' error for
  // out-of-range options.
  common::RequestId call(common::NodeId dest, common::VerbId verb,
                         serial::BufferChain body, Callback callback,
                         CallOptions options = {});
  common::RequestId call(common::NodeId dest, std::string_view verb,
                         serial::BufferChain body, Callback callback,
                         CallOptions options = {}) {
    return call(dest, common::intern_verb(verb), std::move(body),
                std::move(callback), options);
  }

  // Abandons an in-flight call: the pending entry (and its callback,
  // unfired) is destroyed, so nothing retransmits it, and a reply arriving
  // later is dropped as stale.  No-op when the call already completed.
  // This is how a hedged call silences the losing branch.  Counted in
  // "rmi.cancelled_calls".
  void cancel(common::RequestId id);

  // True one-way invoke: no pending-table entry, no retransmission, no reply
  // — and on the receiving side no reply-cache or caller-marks traffic.
  // The service runs with an unarmed Replier (replier.armed() == false);
  // delivery is at-most-once (0 under loss, never 2: nothing retransmits).
  void call_oneway(common::NodeId dest, common::VerbId verb,
                   serial::BufferChain body);
  void call_oneway(common::NodeId dest, std::string_view verb,
                   serial::BufferChain body) {
    call_oneway(dest, common::intern_verb(verb), std::move(body));
  }

  // Enables/disables per-link batching (see BatchOptions).  Any queued
  // envelopes are flushed before the new options take effect.
  void set_batching(BatchOptions options);
  [[nodiscard]] const BatchOptions& batching() const { return batch_options_; }

  // Enables/disables adaptive reply-cache sizing (see AdaptiveCacheOptions).
  // The current capacity is clamped into [floor, ceiling] immediately.
  void set_adaptive_reply_cache(AdaptiveCacheOptions options);
  [[nodiscard]] std::size_t reply_cache_capacity() const {
    return reply_cache_capacity_;
  }

  // Runs the event loop until `done` holds: the one way driver code blocks
  // on the network.  Needs a one-shard network (throws MageError on one
  // with more than one shard); throws TransportError if the simulation
  // drains first.  The errors name the `awaited` reply's verb.
  void block_until(const std::function<bool()>& done, common::VerbId awaited);

  // Synchronous call usable only from driver code (blocks until the reply
  // arrives).  A failed call throws via throw_error.
  serial::BufferChain call_sync(common::NodeId dest, common::VerbId verb,
                                serial::BufferChain body,
                                CallOptions options = {});
  serial::BufferChain call_sync(common::NodeId dest, std::string_view verb,
                                serial::BufferChain body,
                                CallOptions options = {}) {
    return call_sync(dest, common::intern_verb(verb), std::move(body),
                     options);
  }

 private:
  friend class Replier;

  struct PendingCall {
    common::NodeId dest;
    common::VerbId verb;
    serial::BufferChain body;  // retained (refcounts) for retransmission
    Callback callback;
    int attempts = 0;
    int max_attempts = 0;
    std::uint32_t retry_class = 0;  // index into retry_classes_
    // The class ring entry of its latest transmission (RetryClass::find),
    // once attempts > 0.  32 bits fill the padding after retry_class, so
    // every pending-table slot keeps its size.
    std::uint32_t ticket = 0;
  };

  // One transmission awaiting its retransmission deadline.  `request` is 0
  // (ids start at 1) once the call completed or was cancelled: a tombstone.
  struct Deadline {
    common::SimTime at;
    std::uint64_t seq;  // reserved when sent: orders same-instant events
    std::uint64_t request;
  };

  // The transmissions of one retry_timeout_us, in deadline order: a ring
  // over a power-of-two vector that doubles when full and never shrinks.
  // The entry with ticket t (the t-th ever pushed, from 0, mod 2^32) sits
  // at ring[(head + (t - popped) mod 2^32) & (ring.size() - 1)] while
  // (t - popped) mod 2^32 < count; growth re-lays the ring in order from
  // head 0, which keeps that formula valid.  A pending call's ticket is
  // stale only between the pop of its entry and its retransmission, so
  // the modular window never aliases.
  // `event` is armed while the ring is non-empty, under the number of the
  // head it was armed for (event.seq); once that head completes, the event
  // fires at its deadline anyway and re-arms at the new head.
  struct RetryClass {
    common::SimDuration timeout_us = 0;
    std::vector<Deadline> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::uint32_t popped = 0;  // entries ever popped: the head's ticket
    sim::EventId event;
    bool armed = false;

    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] const Deadline& front() const { return ring[head]; }
    // The entry of `ticket`, or nullptr once it has left the ring.
    [[nodiscard]] Deadline* find(std::uint32_t ticket) {
      const std::uint32_t pos = ticket - popped;
      if (pos >= count) return nullptr;
      return &ring[(head + pos) & (ring.size() - 1)];
    }
    void pop_front() {
      head = (head + 1) & (ring.size() - 1);
      --count;
      ++popped;
    }
    // Appends `d` and returns its ticket.
    std::uint32_t push_back(const Deadline& d);
  };

  // Throws when the network has more than one shard: blocking here would
  // spin one shard's queue while the reply depends on other shards making
  // progress, a deadlock by construction.
  void require_one_shard(common::VerbId awaited) const;

  void on_message(net::Message& msg);
  // The envelope is consumed (its body moved out) by the handlers.
  void dispatch_envelope(common::NodeId from, Envelope& env);
  void on_request(common::NodeId from, Envelope& env);
  void on_oneway(common::NodeId from, Envelope& env);
  void on_reply(Envelope& env);
  void transmit(common::RequestId id);
  // The class a call of `timeout_us` belongs to, created on first use.
  std::uint32_t retry_class(common::SimDuration timeout_us);
  // Queues the transmission of `request` just sent, arming the event if
  // the class was idle; returns the entry's ticket.
  std::uint32_t push_deadline(std::uint32_t c, common::RequestId request);
  // The class's event fired: retransmits (or gives up on) the head it was
  // armed for, if that call is still pending, then re-arms at the new head.
  void on_retry_due(std::uint32_t c);
  // After `pc` completed or was cancelled: tombstones its entry, pops
  // tombstones off the head, and cancels the event when none is left.
  void retire(const PendingCall& pc);
  void drop_completed(RetryClass& rc);
  void arm(std::uint32_t c);
  void send_reply(common::NodeId to, common::RequestId id,
                  common::VerbId verb, bool ok, const std::string& error,
                  serial::BufferChain body);
  // Routes the parked envelope in `slot` after `delay`, then frees the slot.
  void route_after(common::SimDuration delay, common::NodeId dest,
                   std::uint32_t slot, net::MsgKind kind);
  std::int64_t* verb_calls_counter(common::VerbId verb);

  // Runs the envelope's service (with an armed Replier for a request)
  // after the dispatch and unmarshalling cost: inline, reading `env` in
  // place, when the cost model charges nothing, else from a parked slot.
  // RECEIVER SIDE ONLY: sender-side steps (call prep, replies) stay events
  // even at zero cost, so drivers keep their window to mutate faults.
  void serve(common::NodeId from, Envelope& env, bool armed);
  void run_service(common::NodeId from, const Envelope& env, bool armed);

  // All outgoing envelopes funnel through here: batched links queue the
  // envelope for the next flush boundary, everything else sends now.  Both
  // take the envelope's body.
  void route(common::NodeId dest, Envelope& env, net::MsgKind kind);
  void send_now(common::NodeId dest, Envelope& env, net::MsgKind kind);
  void schedule_flush();
  void flush_all();
  void flush_link(std::size_t dest_index);

  // Rebuilds the at-most-once ring at `new_capacity`, keeping the newest
  // entries in exact FIFO order (shrink evicts oldest-first, with the same
  // accounting as a ring wrap).
  void resize_reply_cache(std::size_t new_capacity);

  net::Network& network_;
  sim::Simulation& sim_;
  common::NodeId self_;
  // Flat dispatch table indexed by VerbId (grown on register).  A deque so
  // growth never moves existing entries: a service may register new verbs
  // from inside its own handler while its std::function is mid-invocation
  // (re-registering the SAME verb from its own handler is still undefined).
  std::deque<Service> services_;
  // Open-addressed, keyed by request id (ids start at 1, never 0).
  common::FlatMap64<PendingCall> pending_;
  std::uint64_t next_request_ = 1;
  // One per distinct retry_timeout_us, in first-use order; never removed,
  // so an index stays valid for the transport's lifetime.
  std::vector<RetryClass> retry_classes_;
  // Envelopes waiting out a simulated CPU cost (a request before its
  // service runs, a reply or one-way before it reaches the wire): the
  // event captures the slot.
  common::Slab<Envelope> parked_;

  // Hot-path counters (see StatsRegistry::counter_handle).
  std::int64_t* calls_;
  std::int64_t* failures_;
  std::int64_t* retransmissions_;
  std::int64_t* duplicates_suppressed_;
  std::int64_t* stale_replies_;
  std::int64_t* reply_cache_evictions_;
  std::int64_t* evicted_reexecutions_;
  std::int64_t* cancelled_calls_;
  std::int64_t* oneway_calls_;
  std::int64_t* oneway_executions_;
  std::int64_t* oneway_no_service_;
  std::int64_t* batches_sent_;
  std::int64_t* batched_invokes_;
  std::int64_t* batch_singletons_;
  std::int64_t* reply_cache_grows_;
  std::int64_t* reply_cache_shrinks_;
  std::int64_t* reply_cache_capacity_stat_;
  std::int64_t* reply_cache_capacity_high_water_;
  // Per-verb "rmi.calls.<verb>" counters, indexed by VerbId.
  std::vector<std::int64_t*> per_verb_calls_;

  // --- per-link batching state (see BatchOptions) --------------------------
  struct LinkQueue {
    std::vector<Envelope> envelopes;  // FIFO; capacity reused across flushes
    // The kind envelopes[0] is sent as when it flushes alone.
    net::MsgKind first_kind = net::MsgKind::Request;
    std::size_t bytes = 0;  // encoded_size() sum of `envelopes`
  };
  BatchOptions batch_options_;
  common::VerbId batch_verb_;            // interned "rmi.batch", for traces
  std::vector<LinkQueue> batch_queues_;  // indexed by dest NodeId value
  bool flush_scheduled_ = false;         // one flush event serves all links

  // --- adaptive reply-cache state (see AdaptiveCacheOptions) ---------------
  AdaptiveCacheOptions adaptive_cache_;
  std::int64_t evictions_since_resize_ = 0;
  common::SimTime last_eviction_us_ = 0;

  // At-most-once receiver state, keyed by (caller, request id) packed into
  // one 64-bit word (caller in the high bits, request id in the low 32).
  // The full request id is kept in the entry and verified on every hit, so
  // a low-32-bit wraparound can never alias two live requests.  The key is
  // never 0 (node ids start at 1), as FlatMap64 requires.
  //
  // Layout: the open-addressed index probes slim (key, ring slot) pairs —
  // a few slots per cache line — while the fat entries (cached reply
  // envelopes) sit in a ring array in insertion order, each touched only
  // when its request is addressed.  The ring slot being overwritten on
  // insert is the entry evicted.  The index is pre-sized for at most
  // kIndexPresize entries; past that it grows with its live entries (by
  // rehash, moving 16-byte slots) while the ring fills, and then holds
  // capacity keys, one erased per key inserted.  The entries ring is
  // reserved at its first insert, filled append-only to capacity and then
  // overwritten in place, so once it has wrapped the receive path never
  // allocates.
  struct ReplyCacheEntry {
    std::uint64_t key = 0;  // pack_key of the request this slot caches
    common::RequestId request_id;
    bool completed = false;  // false => execution still in progress
    Envelope reply;          // valid when completed
  };
  static std::uint64_t pack_key(common::NodeId node, common::RequestId id) {
    return (static_cast<std::uint64_t>(node.value()) << 32) |
           (id.value() & 0xFFFFFFFFull);
  }
  // Claims the ring slot for a fresh key (evicting the slot's previous
  // entry once the ring is full) and indexes it.
  ReplyCacheEntry* reply_cache_insert(std::uint64_t key);

  static constexpr std::size_t kIndexPresize = 1024;
  common::FlatMap64<std::uint32_t> reply_cache_index_;  // key -> ring slot
  std::vector<ReplyCacheEntry> reply_cache_entries_;    // insertion order
  std::size_t reply_cache_head_ = 0;
  std::size_t reply_cache_capacity_;

  // Per-caller-node marks backing the "rmi.evicted_reexecutions" counter
  // (ROADMAP: surface eviction-caused re-executions).  Keyed by the
  // caller's node value (non-zero as FlatMap64 requires; one entry per
  // peer).  `high_water` is the highest request id ever received from the
  // caller; `evicted_max` the highest of the caller's ids whose reply-cache
  // entry has been evicted (or alias-overwritten).  An arriving request
  // that misses the cache with id <= evicted_max re-executes the service —
  // at-most-once broken by cache undersizing — and is counted.  The test
  // is exact whenever the cache is adequately sized (nothing of the
  // caller's was ever evicted => counter provably 0, the chaos-run
  // assertion); in deliberately undersized AND lossy runs a late first
  // transmission below an evicted id can overcount — acceptable for a
  // pressure diagnostic whose load-bearing use is the zero assertion.
  struct CallerMarks {
    std::uint64_t high_water = 0;
    std::uint64_t evicted_max = 0;
  };
  void mark_evicted(std::uint64_t key, common::RequestId id);
  common::FlatMap64<CallerMarks> caller_marks_;
};

}  // namespace mage::rmi
