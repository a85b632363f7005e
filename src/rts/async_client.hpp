// AsyncClient: the asynchronous MAGE facade — THE way to program MAGE
// (docs/API.md), and the runtime's only location chase.
//
// Every operation returns a MageFuture and delivers its completion on the
// calling node's own shard, so application logic written as future chains
// runs unchanged (and bit-identically) on the driver engine and on the
// sharded engine at any worker count.  The blocking MageClient is a thin
// wrapper: it issues the same operations and runs the driver's event loop
// until their futures complete.
//
//   * chase() is the one implementation of "operate on the object wherever
//     it is now" (invoke, one-way invoke, move, lock): send to a starting
//     host, follow Moved hints (epoch-fenced — a stale hint is rejected and
//     counted in "rts.stale_hints_rejected"), back off and re-locate on
//     NotFound, and fail at once on a remote rejection.  The typed ops
//     below are adapters over it.
//   * locate()/find() resolve a name by an async lookup walk with a
//     replicated-directory fallback.
//   * load_of()/ping()/manifest() are plain single-host calls.
//
// Calls travel through a channel stack built from this client's
// rmi::CallPolicy (rmi/channel.hpp): Retriable(Hedged(Direct)) with layers
// elided when their policy fields are off.  The default policy adds NO
// channel-level retries or hedges — mage.invoke is not idempotent, and
// only transport-level retransmission is at-most-once safe.  Give a
// *separate* AsyncClient a retrying/hedging policy for idempotent traffic
// (load probes, lookups, convergent moves) — see docs/API.md's cookbook.
//
// invoke_oneway() always uses the bare direct channel, whatever the
// policy: a one-way verb must never be channel-retried (zero-retry by
// construction; asserted in tests/async_client_test.cpp).  Locks bypass
// the channel stack too, with a fixed 64-transmission budget.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "rmi/channel.hpp"
#include "rts/future.hpp"
#include "rts/protocol.hpp"
#include "rts/server.hpp"
#include "serial/traits.hpp"

namespace mage::rts {

class DirectoryClient;

class AsyncClient {
 public:
  // `server` provides the transport, registry, and static directory of the
  // node this client runs on.  The default policy is a bare transport call
  // (no channel retries/hedges — see the header comment).
  explicit AsyncClient(MageServer& server);
  AsyncClient(MageServer& server, rmi::CallPolicy policy);

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  [[nodiscard]] common::NodeId self() const { return transport_.self(); }
  [[nodiscard]] const rmi::CallPolicy& policy() const { return policy_; }

  // Replaces the channel stack.  Setup/driver context only: throws
  // MageError while any call issued through this client is outstanding
  // (an in-flight call's channel would be destroyed under it).
  void set_policy(rmi::CallPolicy policy);

  // Opt-in high-availability naming: when set, locate() falls back to the
  // replicated director quorum when the static directory's lead (or a
  // forwarding chain) dead-ends, and a completed move announces the new
  // placement to it.  Null by default.  Not owned.
  void set_directory_client(DirectoryClient* dclient) {
    directory_client_ = dclient;
  }

  // --- the chase ----------------------------------------------------------

  enum class ChaseKind { Invoke, InvokeOneway, Move, Lock };

  // One operation addressed to "wherever `name` is now".
  struct Chase {
    ChaseKind kind = ChaseKind::Invoke;
    common::ComponentName name;
    // First host to try: a mobility attribute's cached cloc or a move's
    // hint.  kNoNode starts from believed_host(), or re-locates when
    // nothing is known locally.
    common::NodeId start = common::kNoNode;
    std::string method;                       // Invoke, InvokeOneway
    serial::Buffer args;                      // Invoke, InvokeOneway
    common::NodeId to = common::kNoNode;      // Move: the destination
    common::NodeId target = common::kNoNode;  // Lock: the attribute's target
    std::uint64_t activity = 0;               // Lock: the requesting activity
  };

  // A converged chase: where it completed and what the Ok reply carried.
  struct Chased {
    common::NodeId host = common::kNoNode;  // Move: the destination
    serial::Buffer result;                  // Invoke
    std::uint64_t lock_id = 0;              // Lock
    LockKind lock_kind = LockKind::Stay;    // Lock
  };

  // Runs the chase.  Every failure is decided here, by one rule:
  //
  //   accepted Moved hint               -> follow it now
  //   stale hint, NotFound, dead-end    -> back off and re-locate
  //   transport failure of a Move       -> re-locate (a move converges)
  //   transport failure of the others   -> fail (a re-send under a fresh
  //                                        id could run the method twice)
  //   access denied, capacity exceeded,
  //   Status::Error                     -> fail with the server's message
  //
  // Followed hints and re-locations share a budget of kMaxChaseAttempts; a
  // spent budget fails with "'<verb>' for 'name' did not converge after N
  // attempts: <last setback>".
  MageFuture<Chased> chase(Chase op);

  // --- invocation ---------------------------------------------------------

  template <typename R, typename... Args>
  MageFuture<R> invoke(const common::ComponentName& name,
                       const std::string& method, const Args&... args) {
    serial::Writer w;
    (serial::put(w, args), ...);
    return invoke_raw(name, method, w.take()).then([](serial::Buffer& b) {
      serial::Reader r(b);
      return serial::get<R>(r);
    });
  }

  MageFuture<serial::Buffer> invoke_raw(const common::ComponentName& name,
                                        const std::string& method,
                                        serial::Buffer args);

  // Mobile-agent one-way invoke: the future completes on the host's
  // acknowledgement (the result stays parked at the host).  Always rides
  // the direct channel — zero channel retries regardless of policy.
  template <typename... Args>
  MageFuture<Unit> invoke_oneway(const common::ComponentName& name,
                                 const std::string& method,
                                 const Args&... args) {
    serial::Writer w;
    (serial::put(w, args), ...);
    return invoke_oneway_raw(name, method, w.take());
  }

  MageFuture<Unit> invoke_oneway_raw(const common::ComponentName& name,
                                     const std::string& method,
                                     serial::Buffer args);

  // --- placement ----------------------------------------------------------

  // Moves the component to `to`; completes with the new host once the
  // migration converged.  Records the new placement epoch and (when a
  // DirectoryClient is set) announces the placement asynchronously.
  MageFuture<common::NodeId> move(const common::ComponentName& name,
                                  common::NodeId to);

  // Async resolve: where is `name` now?  (Epoch-fenced lookup walk, then
  // directory fallback, then one unfenced walk; does not chase
  // invocations anywhere.)
  MageFuture<common::NodeId> locate(const common::ComponentName& name);

  // locate() with patience: while the walk dead-ends (the object may be
  // mid-flight between namespaces) it backs off and retries, within the
  // chase budget.  A transport failure fails at once.
  MageFuture<common::NodeId> find(const common::ComponentName& name);

  // --- probes -------------------------------------------------------------

  MageFuture<double> load_of(common::NodeId node);
  MageFuture<Unit> ping(common::NodeId node);

  // Lists the components bound on `node` whose names start with `prefix`,
  // as (name, placement epoch) pairs — the partition-ops probe a
  // rebalancer uses to pick a migration victim from the host's
  // authoritative registry instead of a possibly-stale client table.
  MageFuture<std::vector<std::pair<std::string, std::uint64_t>>> manifest(
      common::NodeId node, const std::string& prefix);

  // --- epoch fences -------------------------------------------------------

  // The highest placement epoch this client has confirmed for `name` (0 =
  // none).  note_epoch records authoritative knowledge (a lookup, a
  // completed move); Moved hints with an older epoch are rejected instead
  // of chased — a stale chain can never send this client back to a dead
  // ex-home.
  void note_epoch(const common::ComponentName& name, std::uint64_t epoch);
  [[nodiscard]] std::uint64_t known_epoch(
      const common::ComponentName& name) const;

  // Best local knowledge of the component's host (no network traffic):
  // local object, forwarding address, or static-directory home — kNoNode
  // when nothing is known.
  [[nodiscard]] common::NodeId believed_host(
      const common::ComponentName& name) const;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }

 private:
  struct ChaseOp;

  void rebuild_stack();
  [[nodiscard]] rmi::Channel& channel() { return *top_; }

  // Applies the epoch fence to a Moved hint: true = chase it (and the
  // epoch knowledge was recorded), false = stale hint rejected.
  bool accept_hint(const common::ComponentName& name, common::NodeId hint,
                   std::uint64_t hint_epoch);

  // chase() with the caller's future typed by `take`, which maps the
  // converged Chased to the result.
  template <typename R, typename Take>
  MageFuture<R> chase_into(Chase request, Take take);
  void start_chase(const std::shared_ptr<ChaseOp>& op, Chase request);
  void send_op(const std::shared_ptr<ChaseOp>& op);
  void on_reply(const std::shared_ptr<ChaseOp>& op, rmi::CallResult result);
  // The one status handler: InvokeReply, SimpleReply and LockReply share
  // the status/hint/hint_epoch/error fields it acts on.
  template <typename ProtoReply>
  void on_status(const std::shared_ptr<ChaseOp>& op, const ProtoReply& reply,
                 Chased ok);
  void complete(const std::shared_ptr<ChaseOp>& op, Chased ok,
                std::uint64_t epoch);
  // Backoff, re-locate, resume — or fail the op once the chase budget is
  // spent.  `why` explains the last setback in the final error.
  void relocate_and_resume(const std::shared_ptr<ChaseOp>& op,
                           std::string why);
  void give_up(const std::shared_ptr<ChaseOp>& op, const std::string& why);
  void fail_op(const std::shared_ptr<ChaseOp>& op, std::string error);
  void find_attempt(const common::ComponentName& name,
                    const MagePromise<common::NodeId>& promise, int attempt);

  MageFuture<common::NodeId> directory_fallback(
      const common::ComponentName& name);
  // One lookup walk from `start`, recording the epoch and forwarding
  // address it finds.  locate() walks fenced (min_epoch = known_epoch)
  // and, after a dead-end, once more unfenced (min_epoch 0, counted in
  // "rts.unfenced_walks"): a fenced walk can dead-end when every reachable
  // chain entry is older than this client's own fence even though the
  // chain still leads to the live binding (epochs rise strictly along a
  // forwarding chain, so following a stale link converges; only a node's
  // LOCAL binding ever serves, so the worst case is a wasted hop, never a
  // wrong execution).  The unfenced walk is exactly the one a fresh client
  // (fence 0) is always allowed.
  MageFuture<common::NodeId> walk(const common::ComponentName& name,
                                  common::NodeId start,
                                  std::uint64_t min_epoch);

  // Bumps a counter, registering it on first use: a client that never
  // takes a path adds no zero-valued key to the stats dump.
  void count(std::int64_t*& slot, const char* key);

  MageServer& server_;
  rmi::Transport& transport_;
  sim::Simulation& sim_;
  DirectoryClient* directory_client_ = nullptr;

  rmi::CallPolicy policy_;
  std::unique_ptr<rmi::DirectChannel> direct_;
  std::unique_ptr<rmi::HedgedChannel> hedged_;
  std::unique_ptr<rmi::RetriableChannel> retriable_;
  rmi::Channel* top_ = nullptr;
  std::int64_t outstanding_ = 0;  // set_policy guard

  // Highest confirmed placement epoch per name (see note_epoch).
  std::map<common::ComponentName, std::uint64_t> known_epochs_;

  // Completions of the future-API ops, and every chase's detours.
  std::int64_t* async_invokes_ = nullptr;    // "rts.async_invokes"
  std::int64_t* async_moves_ = nullptr;      // "rts.async_moves"
  std::int64_t* async_redirects_ = nullptr;  // "rts.async_redirects"
  std::int64_t* async_relocates_ = nullptr;  // "rts.async_relocates"
};

}  // namespace mage::rts
