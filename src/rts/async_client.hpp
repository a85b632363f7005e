// AsyncClient: the asynchronous MAGE facade — THE way to program MAGE
// (docs/API.md), and the runtime's only location chase.
//
// Every operation returns a MageFuture and delivers its completion on the
// calling node's own shard, so application logic written as future chains
// runs unchanged (and bit-identically) on one Simulation and on a
// ShardedSim at any worker count.  The blocking MageClient is a thin
// wrapper: it issues the same operations and runs the driver's event loop
// until their futures complete.
//
//   * chase() is the one implementation of "operate on the object wherever
//     it is now" (invoke, one-way invoke, move, lock): send to a starting
//     host, follow Moved hints (epoch-fenced — a stale hint is rejected and
//     counted in "rts.stale_hints_rejected"), back off and re-locate on
//     NotFound, and fail at once on a remote rejection.  The typed ops
//     below are adapters over it.
//   * locate()/find() resolve a name by an async lookup walk: fenced, and
//     after a dead-end once more unfenced.
//   * load_of()/ping()/manifest() are plain single-host calls.
//
// Invokes, moves, lookup walks and probes are each one rmi::call under
// this client's rmi::CallPolicy (rmi/call_policy.hpp).  The default policy
// adds NO retries or hedges — mage.invoke is not idempotent, and only
// transport-level retransmission is at-most-once safe.  Give a *separate*
// AsyncClient a retrying/hedging policy for idempotent traffic (load
// probes, lookups, convergent moves) — see docs/API.md's cookbook.
//
// invoke_oneway() always makes a bare transport call with the policy's
// attempt options, whatever the rest of the policy says: a one-way verb
// must never be re-issued under a fresh id (zero-retry by construction;
// asserted in tests/async_client_test.cpp).  Locks are bare transport
// calls too, with a fixed 64-transmission budget.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "rmi/call_policy.hpp"
#include "rts/future.hpp"
#include "rts/protocol.hpp"
#include "rts/server.hpp"
#include "serial/traits.hpp"

namespace mage::rts {

class AsyncClient {
 public:
  // `server` provides the transport, registry, and static directory of the
  // node this client runs on.  The default policy is a bare transport call
  // (no retries/hedges — see the header comment).
  explicit AsyncClient(MageServer& server, rmi::CallPolicy policy = {});

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  [[nodiscard]] common::NodeId self() const { return transport_.self(); }

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
  // acknowledgement (the result stays parked at the host).  Always a bare
  // transport call — zero retries and hedges regardless of policy.
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
  // migration converged, and records the new placement epoch.
  MageFuture<common::NodeId> move(const common::ComponentName& name,
                                  common::NodeId to);

  // Async resolve: where is `name` now?  (Epoch-fenced lookup walk, then
  // one unfenced walk; does not chase invocations anywhere.)
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
  template <typename R, typename Take>
  struct ChaseInto;

  // One single-host call under this client's policy: a failure fails the
  // future with its error, and `on_ok(body, promise)` completes it from an
  // Ok reply's body.
  template <typename R, typename OnOk>
  MageFuture<R> probe(common::NodeId node, common::VerbId verb,
                      serial::BufferChain body, OnOk on_ok);

  // Applies the epoch fence to a Moved hint: true = chase it (and the
  // epoch knowledge was recorded), false = stale hint rejected.
  bool accept_hint(const common::ComponentName& name, common::NodeId hint,
                   std::uint64_t hint_epoch);

  // chase() with the caller's future typed by `take`, which maps the
  // converged Chased to the result.  The op and the future's state share
  // one allocation; the op handle then moves from step to step (send,
  // reply, redirect, backoff) rather than being copied into each.
  using OpHandle = std::shared_ptr<ChaseOp>;
  template <typename R, typename Take>
  MageFuture<R> chase_into(Chase request, Take take);
  void start_chase(OpHandle op, Chase request);
  void send_op(OpHandle op);
  void on_reply(OpHandle op, rmi::CallResult result);
  // The one status handler: InvokeReply, SimpleReply and LockReply share
  // the status/hint/hint_epoch/error fields it acts on.
  template <typename ProtoReply>
  void on_status(OpHandle op, const ProtoReply& reply, Chased ok);
  void complete(ChaseOp& op, Chased ok, std::uint64_t epoch);
  // Backoff, re-locate, resume — or fail the op once the chase budget is
  // spent.  `why` explains the last setback in the final error.
  void relocate_and_resume(OpHandle op, std::string why);
  void give_up(ChaseOp& op, const std::string& why);
  void find_attempt(const common::ComponentName& name,
                    const MagePromise<common::NodeId>& promise, int attempt);

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

  MageServer& server_;
  rmi::Transport& transport_;
  sim::Simulation& sim_;

  const rmi::CallPolicy policy_;

  // Highest confirmed placement epoch per name (see note_epoch).
  std::unordered_map<common::ComponentName, std::uint64_t> known_epochs_;

  // Completions of the future-API ops, and every chase's detours.
  std::int64_t* async_invokes_ = nullptr;    // "rts.async_invokes"
  std::int64_t* async_moves_ = nullptr;      // "rts.async_moves"
  std::int64_t* async_redirects_ = nullptr;  // "rts.async_redirects"
  std::int64_t* async_relocates_ = nullptr;  // "rts.async_relocates"
  std::int64_t* stale_hints_ = nullptr;      // "rts.stale_hints_rejected"
  std::int64_t* unfenced_walks_ = nullptr;   // "rts.unfenced_walks"
};

}  // namespace mage::rts
