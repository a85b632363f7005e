#include "rts/async_client.hpp"

#include <utility>

#include "rts/director.hpp"

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// Chase/retry pacing for operations addressed to a moving object.
constexpr int kMaxChaseAttempts = 12;
constexpr common::SimDuration kChaseBackoffUs = 10'000;

// Lock waits can be long (the queue drains one holder at a time), so a
// lock gets a generous same-id retransmission budget; duplicates are
// suppressed server-side.
constexpr int kLockTransmissions = 64;

// One in-flight chase: the state machine the call callbacks and the
// relocation events advance, each holding the one handle in turn.
struct AsyncClient::ChaseOp {
  ChaseKind kind = ChaseKind::Invoke;
  common::ComponentName name;
  common::VerbId verb;
  serial::BufferChain request;  // encoded once, re-sent verbatim per hop
  common::NodeId to;            // Move
  common::NodeId at = common::kNoNode;
  int attempts = 0;

  // Exactly one of these runs, once: it completes the caller's future.
  // (An op is destroyed as its ChaseInto, through the block it shares.)
  virtual void done(Chased& chased) = 0;
  virtual void fail(std::string error) = 0;
};

// The op and the caller's future state in one block.
template <typename R, typename Take>
struct AsyncClient::ChaseInto final : ChaseOp {
  explicit ChaseInto(Take t) : take(std::move(t)) {}

  void done(Chased& chased) override { future.set_value(take(chased)); }
  void fail(std::string error) override {
    future.set_error(std::move(error));
  }

  detail::FutureState<R> future;
  Take take;
};

AsyncClient::AsyncClient(MageServer& server, rmi::CallPolicy policy)
    : server_(server),
      transport_(server.transport()),
      sim_(transport_.network().node_sim(transport_.self())),
      policy_(policy) {
  policy_.register_counters(sim_.stats());
}

template <typename R, typename OnOk>
MageFuture<R> AsyncClient::probe(common::NodeId node, common::VerbId verb,
                                 serial::BufferChain body, OnOk on_ok) {
  MagePromise<R> promise;
  rmi::call(transport_, policy_, node, verb, std::move(body),
            [promise, on_ok = std::move(on_ok)](rmi::CallResult result) {
              if (result.ok) {
                on_ok(result.body, promise);
              } else {
                promise.set_error(std::move(result.error));
              }
            });
  return promise.future();
}

// --- epoch fences -----------------------------------------------------------

void AsyncClient::note_epoch(const common::ComponentName& name,
                             std::uint64_t epoch) {
  auto& known = known_epochs_[name];
  if (epoch > known) known = epoch;
}

std::uint64_t AsyncClient::known_epoch(
    const common::ComponentName& name) const {
  const auto it = known_epochs_.find(name);
  return it == known_epochs_.end() ? 0 : it->second;
}

bool AsyncClient::accept_hint(const common::ComponentName& name,
                              common::NodeId hint, std::uint64_t hint_epoch) {
  if (common::is_no_node(hint)) return false;
  // Unfenced hints (epoch 0) come from servers without epoch knowledge;
  // they are chased.  Fenced hints must be at least as recent as what this
  // client has already confirmed — an older hint points into a placement
  // history segment we know is obsolete (e.g. a forwarding loop left
  // behind by a crashed-and-restarted ex-home).
  auto& known = known_epochs_[name];
  if (hint_epoch != 0 && hint_epoch < known) {
    sim_.stats().bump(stale_hints_, "rts.stale_hints_rejected");
    return false;
  }
  if (hint_epoch > known) known = hint_epoch;
  return true;
}

common::NodeId AsyncClient::believed_host(
    const common::ComponentName& name) const {
  if (const Registry::Record* record = server_.registry().find(name)) {
    if (record->hosted()) return transport_.self();
    if (record->forward) return *record->forward;
  }
  const ComponentInfo* info = server_.directory().find(name);
  return info == nullptr ? common::kNoNode : info->home;
}

// --- locate -----------------------------------------------------------------

MageFuture<common::NodeId> AsyncClient::directory_fallback(
    const common::ComponentName& name) {
  MagePromise<common::NodeId> promise;
  if (directory_client_ == nullptr) {
    promise.set_error("'" + name + "' is not known here (no forwarding "
                      "address, no static-directory entry, no replicated "
                      "directory configured)");
    return promise.future();
  }
  directory_client_->resolve(
      name, [this, name, promise](
                std::optional<DirectoryClient::Resolution> resolution) {
        if (!resolution) {
          promise.set_error("directory has no record of '" + name + "'");
          return;
        }
        if (resolution->epoch < known_epoch(name)) {
          // The quorum lags our own confirmed knowledge (an announce is
          // still in flight); treat as not-yet-found so the chase retries.
          promise.set_error("directory record of '" + name + "' is stale");
          return;
        }
        note_epoch(name, resolution->epoch);
        server_.registry().update_forward(name, resolution->host,
                                          resolution->epoch);
        promise.set_value(resolution->host);
      });
  return promise.future();
}

MageFuture<common::NodeId> AsyncClient::walk(const common::ComponentName& name,
                                             common::NodeId start,
                                             std::uint64_t min_epoch) {
  proto::LookupRequest request;
  request.name = name;
  request.min_epoch = min_epoch;
  return probe<common::NodeId>(
      start, proto_verbs::kLookup, request.encode(),
      [this, name](const serial::BufferChain& body,
                   const MagePromise<common::NodeId>& promise) {
        const auto reply = proto::LookupReply::decode(body);
        if (reply.status != proto::Status::Ok) {
          promise.set_error("lookup walk for '" + name +
                            "' dead-ended: " + reply.error);
          return;
        }
        note_epoch(name, reply.epoch);
        server_.registry().update_forward(name, reply.host, reply.epoch);
        promise.set_value(reply.host);
      });
}

MageFuture<common::NodeId> AsyncClient::locate(
    const common::ComponentName& name) {
  const Registry::Record* record = server_.registry().find(name);
  if (record != nullptr && record->hosted()) {
    MagePromise<common::NodeId> promise;
    promise.set_value(transport_.self());
    return promise.future();
  }

  const ComponentInfo* info = server_.directory().find(name);
  const bool shared = info != nullptr && info->is_public;
  common::NodeId start = common::kNoNode;
  if (record != nullptr && record->forward) {
    // Private objects move only through their owner, so the forwarding
    // address is authoritative ("if the object is private, cloc always
    // accurately represents the bound object's current location", Section
    // 3.5); shared ones verify by walking the chain.
    if (!shared) {
      MagePromise<common::NodeId> promise;
      promise.set_value(*record->forward);
      return promise.future();
    }
    start = *record->forward;
  } else if (info != nullptr) {
    start = info->home;
  }
  if (common::is_no_node(start) || start == transport_.self()) {
    return directory_fallback(name);
  }

  MagePromise<common::NodeId> promise;
  const auto found = [promise](common::NodeId host) {
    promise.set_value(host);
  };
  const auto failed = [promise](const std::string& error) {
    promise.set_error(error);
  };
  walk(name, start, known_epoch(name))
      .then(found)
      .on_error([this, name, start, found, failed](const std::string& error) {
        // Chain start unreachable or the walk dead-ended; the replicated
        // directory (when configured) may still know the placement.  After
        // a dead-end an unfenced walk is the final fallback (see walk());
        // an unreachable start gets no second walk, which would fail the
        // same way.
        directory_fallback(name).then(found).on_error(
            [this, name, start, found, failed,
             error](const std::string&) {
              if (rmi::error_kind(error) == rmi::ErrorKind::Transport) {
                failed(error);
                return;
              }
              sim_.stats().bump(unfenced_walks_, "rts.unfenced_walks");
              walk(name, start, 0).then(found).on_error(failed);
            });
      });
  return promise.future();
}

MageFuture<common::NodeId> AsyncClient::find(
    const common::ComponentName& name) {
  MagePromise<common::NodeId> promise;
  find_attempt(name, promise, 1);
  return promise.future();
}

void AsyncClient::find_attempt(const common::ComponentName& name,
                               const MagePromise<common::NodeId>& promise,
                               int attempt) {
  locate(name)
      .then([promise](common::NodeId host) { promise.set_value(host); })
      .on_error([this, name, promise, attempt](const std::string& error) {
        if (rmi::error_kind(error) == rmi::ErrorKind::Transport) {
          promise.set_error(error);
          return;
        }
        if (attempt >= kMaxChaseAttempts) {
          promise.set_error("lookup failed after " +
                            std::to_string(kMaxChaseAttempts) +
                            " attempts: " + error);
          return;
        }
        // The object may be mid-flight between namespaces; back off and
        // retry ("these protocols must recover from message loss and
        // account for contention over shared components", Section 4.3).
        sim_.schedule_after(kChaseBackoffUs, [this, name, promise, attempt] {
          find_attempt(name, promise, attempt + 1);
        });
      });
}

// --- the chase --------------------------------------------------------------

template <typename R, typename Take>
MageFuture<R> AsyncClient::chase_into(Chase request, Take take) {
  // The caller's future is completed straight from the chase, and one
  // block holds both.
  auto op = std::make_shared<ChaseInto<R, Take>>(std::move(take));
  MageFuture<R> future(
      std::shared_ptr<detail::FutureState<R>>(op, &op->future));
  start_chase(std::move(op), std::move(request));
  return future;
}

MageFuture<AsyncClient::Chased> AsyncClient::chase(Chase request) {
  return chase_into<Chased>(std::move(request),
                            [](Chased& done) { return std::move(done); });
}

void AsyncClient::start_chase(OpHandle op, Chase request) {
  op->kind = request.kind;
  switch (op->kind) {
    case ChaseKind::Invoke:
    case ChaseKind::InvokeOneway: {
      op->verb = op->kind == ChaseKind::Invoke ? proto_verbs::kInvoke
                                               : proto_verbs::kInvokeOneway;
      proto::InvokeRequest invoke{std::move(request.name),
                                  std::move(request.method),
                                  std::move(request.args)};
      op->request = invoke.encode();
      op->name = std::move(invoke.name);
      break;
    }
    case ChaseKind::Move:
      op->verb = proto_verbs::kMove;
      op->name = std::move(request.name);
      op->to = request.to;
      op->request = proto::MoveRequest{op->name, request.to}.encode();
      break;
    case ChaseKind::Lock:
      op->verb = proto_verbs::kLock;
      op->name = std::move(request.name);
      op->request =
          proto::LockRequest{op->name, request.target, request.activity}
              .encode();
      break;
  }
  op->at = common::is_no_node(request.start) ? believed_host(op->name)
                                             : request.start;
  if (common::is_no_node(op->at)) {
    std::string why = "no local knowledge of '" + op->name + "'";
    relocate_and_resume(std::move(op), std::move(why));
  } else {
    send_op(std::move(op));
  }
}

void AsyncClient::send_op(OpHandle op) {
  const ChaseOp& chase = *op;
  rmi::Transport::Callback done =
      [this, op = std::move(op)](rmi::CallResult result) mutable {
        on_reply(std::move(op), std::move(result));
      };
  if (chase.kind == ChaseKind::Invoke || chase.kind == ChaseKind::Move) {
    rmi::call(transport_, policy_, chase.at, chase.verb, chase.request,
              std::move(done));
    return;
  }
  // A one-way verb is never re-issued under a fresh id (a duplicate would
  // re-run the agent method), and a lock waits out its queue on its own
  // transmission budget: both are bare transport calls.
  rmi::CallOptions options = policy_.attempt_options();
  if (chase.kind == ChaseKind::Lock) options.max_attempts = kLockTransmissions;
  transport_.call(chase.at, chase.verb, chase.request, std::move(done),
                  options);
}

void AsyncClient::on_reply(OpHandle op, rmi::CallResult result) {
  if (!result.ok) {
    // A move converges: if it actually completed, the retry at the stale
    // host is answered with a Moved hint and the chase ends at the target.
    // Any other verb may already have run, and a re-send under a fresh id
    // could run it twice.  Remote rejections fail every kind.
    if (op->kind == ChaseKind::Move &&
        rmi::error_kind(result.error) == rmi::ErrorKind::Transport) {
      relocate_and_resume(std::move(op), std::move(result.error));
    } else {
      op->fail(std::move(result.error));
    }
    return;
  }
  Chased ok;
  switch (op->kind) {
    case ChaseKind::Invoke:
    case ChaseKind::InvokeOneway: {
      auto reply = proto::InvokeReply::decode(result.body);
      ok.result = std::move(reply.result);
      on_status(std::move(op), reply, std::move(ok));
      return;
    }
    case ChaseKind::Move:
      on_status(std::move(op), proto::SimpleReply::decode(result.body),
                std::move(ok));
      return;
    case ChaseKind::Lock: {
      const auto reply = proto::LockReply::decode(result.body);
      ok.lock_id = reply.lock_id;
      ok.lock_kind = reply.kind;
      on_status(std::move(op), reply, std::move(ok));
      return;
    }
  }
}

template <typename ProtoReply>
void AsyncClient::on_status(OpHandle op, const ProtoReply& reply, Chased ok) {
  switch (reply.status) {
    case proto::Status::Ok:
      complete(*op, std::move(ok), reply.hint_epoch);
      return;
    case proto::Status::Moved:
      if (accept_hint(op->name, reply.hint, reply.hint_epoch)) {
        sim_.stats().bump(async_redirects_, "rts.async_redirects");
        if (++op->attempts >= kMaxChaseAttempts) {
          give_up(*op, "redirect chain exceeded the chase budget");
          return;
        }
        op->at = reply.hint;
        send_op(std::move(op));  // fresh hint: follow immediately
        return;
      }
      relocate_and_resume(std::move(op), "stale Moved hint rejected");
      return;
    case proto::Status::NotFound: {
      std::string why = "object is mid-flight or unknown at " +
                        std::to_string(op->at.value());
      relocate_and_resume(std::move(op), std::move(why));
      return;
    }
    case proto::Status::Error:
      op->fail(reply.error);
      return;
  }
}

void AsyncClient::complete(ChaseOp& op, Chased ok, std::uint64_t epoch) {
  ok.host = op.at;
  if (op.kind == ChaseKind::Move) {
    // The source's Ok carries the new placement epoch; record it so stale
    // chains left behind by the old placement are fenced off.
    note_epoch(op.name, epoch);
    server_.registry().update_forward(op.name, op.to, epoch);
    if (directory_client_ != nullptr) {
      // Asynchronous announce (fire-and-forget): readers that race it are
      // protected by the epoch fence.
      const ComponentInfo* info = server_.directory().find(op.name);
      directory_client_->announce(
          proto::PlacementRecord{op.name, std::string{}, op.to,
                                 info != nullptr && info->is_public, epoch},
          [](bool) {});
    }
    ok.host = op.to;
  }
  op.done(ok);
}

void AsyncClient::relocate_and_resume(OpHandle op, std::string why) {
  if (++op->attempts >= kMaxChaseAttempts) {
    give_up(*op, why);
    return;
  }
  sim_.stats().bump(async_relocates_, "rts.async_relocates");
  // The object may be mid-flight between namespaces; back off, re-locate
  // from fresh knowledge, then resume the chase.  Only one of the two
  // locate continuations runs, but both need the op.
  sim_.schedule_after(
      kChaseBackoffUs,
      [this, op = std::move(op), why = std::move(why)]() mutable {
        locate(op->name)
            .then([this, op](common::NodeId host) mutable {
              op->at = host;
              send_op(std::move(op));
            })
            .on_error([this, op, why = std::move(why)](
                          const std::string& locate_error) mutable {
              relocate_and_resume(std::move(op),
                                  why + "; then " + locate_error);
            });
      });
}

void AsyncClient::give_up(ChaseOp& op, const std::string& why) {
  op.fail("'" + common::verb_name(op.verb) + "' for '" + op.name +
          "' did not converge after " + std::to_string(op.attempts) +
          " attempts: " + why);
}

// --- the typed ops ----------------------------------------------------------

MageFuture<serial::Buffer> AsyncClient::invoke_raw(
    const common::ComponentName& name, const std::string& method,
    serial::Buffer args) {
  Chase op;
  op.name = name;
  op.method = method;
  op.args = std::move(args);
  return chase_into<serial::Buffer>(std::move(op), [this](Chased& done) {
    sim_.stats().bump(async_invokes_, "rts.async_invokes");
    return std::move(done.result);
  });
}

MageFuture<Unit> AsyncClient::invoke_oneway_raw(
    const common::ComponentName& name, const std::string& method,
    serial::Buffer args) {
  Chase op;
  op.kind = ChaseKind::InvokeOneway;
  op.name = name;
  op.method = method;
  op.args = std::move(args);
  return chase_into<Unit>(std::move(op), [this](Chased&) {
    sim_.stats().bump(async_invokes_, "rts.async_invokes");
    return Unit{};
  });
}

MageFuture<common::NodeId> AsyncClient::move(const common::ComponentName& name,
                                             common::NodeId to) {
  Chase op;
  op.kind = ChaseKind::Move;
  op.name = name;
  op.to = to;
  return chase_into<common::NodeId>(std::move(op), [this](Chased& done) {
    sim_.stats().bump(async_moves_, "rts.async_moves");
    return done.host;
  });
}

// --- probes -----------------------------------------------------------------

MageFuture<double> AsyncClient::load_of(common::NodeId node) {
  return probe<double>(
      node, proto_verbs::kGetLoad, {},
      [](const serial::BufferChain& body, const MagePromise<double>& promise) {
        promise.set_value(proto::LoadReply::decode(body).load);
      });
}

MageFuture<std::vector<std::pair<std::string, std::uint64_t>>>
AsyncClient::manifest(common::NodeId node, const std::string& prefix) {
  using Entries = std::vector<std::pair<std::string, std::uint64_t>>;
  proto::ManifestRequest request;
  request.prefix = prefix;
  return probe<Entries>(
      node, proto_verbs::kManifest, request.encode(),
      [](const serial::BufferChain& body, const MagePromise<Entries>& promise) {
        promise.set_value(proto::ManifestReply::decode(body).entries);
      });
}

MageFuture<Unit> AsyncClient::ping(common::NodeId node) {
  return probe<Unit>(
      node, proto_verbs::kPing, {},
      [](const serial::BufferChain&, const MagePromise<Unit>& promise) {
        promise.set_value(Unit{});
      });
}

}  // namespace mage::rts
