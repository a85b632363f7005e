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

// One in-flight chase: the state machine shared by the channel callbacks
// and the relocation events that advance it.
struct AsyncClient::ChaseOp {
  ChaseKind kind = ChaseKind::Invoke;
  common::ComponentName name;
  common::VerbId verb;
  serial::BufferChain request;  // encoded once, re-sent verbatim per hop
  common::NodeId to;            // Move
  common::NodeId at = common::kNoNode;
  int attempts = 0;
  // Exactly one of these runs, once: it completes the caller's future.
  common::UniqueFunction<void(Chased&)> on_done;
  common::UniqueFunction<void(std::string)> on_error;
};

AsyncClient::AsyncClient(MageServer& server)
    : AsyncClient(server, rmi::CallPolicy{}) {}

AsyncClient::AsyncClient(MageServer& server, rmi::CallPolicy policy)
    : server_(server),
      transport_(server.transport()),
      sim_(transport_.network().node_sim(transport_.self())),
      policy_(policy) {
  rebuild_stack();
}

void AsyncClient::rebuild_stack() {
  // Destroy outer layers before the channels they wrap.
  retriable_.reset();
  hedged_.reset();
  direct_ = std::make_unique<rmi::DirectChannel>(transport_, policy_);
  top_ = direct_.get();
  if (policy_.hedge_after_us > 0) {
    hedged_ = std::make_unique<rmi::HedgedChannel>(*top_, policy_);
    top_ = hedged_.get();
  }
  if (policy_.max_retries > 0 || policy_.deadline_us > 0) {
    retriable_ = std::make_unique<rmi::RetriableChannel>(*top_, policy_);
    top_ = retriable_.get();
  }
}

void AsyncClient::set_policy(rmi::CallPolicy policy) {
  if (outstanding_ != 0) {
    throw common::MageError(
        "AsyncClient::set_policy with " + std::to_string(outstanding_) +
        " calls in flight: the channel stack cannot be replaced under them");
  }
  policy_ = policy;
  rebuild_stack();
}

void AsyncClient::count(std::int64_t*& slot, const char* key) {
  if (slot == nullptr) slot = sim_.stats().counter_handle(key);
  ++*slot;
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
  if (hint_epoch != 0 && hint_epoch < known_epoch(name)) {
    sim_.stats().add("rts.stale_hints_rejected");
    return false;
  }
  note_epoch(name, hint_epoch);
  return true;
}

common::NodeId AsyncClient::believed_host(
    const common::ComponentName& name) const {
  if (server_.registry().has_local(name) && !server_.in_transit(name)) {
    return transport_.self();
  }
  if (auto fwd = server_.registry().forward(name)) return *fwd;
  if (server_.directory().contains(name)) {
    return server_.directory().info(name).home;
  }
  return common::kNoNode;
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
  MagePromise<common::NodeId> promise;
  ++outstanding_;
  channel().call(start, proto_verbs::kLookup, request.encode(),
                 [this, name, promise](rmi::CallResult result) {
                   --outstanding_;
                   if (!result.ok) {
                     promise.set_error(std::move(result.error));
                     return;
                   }
                   const auto reply = proto::LookupReply::decode(result.body);
                   if (reply.status != proto::Status::Ok) {
                     promise.set_error("lookup walk for '" + name +
                                       "' dead-ended: " + reply.error);
                     return;
                   }
                   note_epoch(name, reply.epoch);
                   server_.registry().update_forward(name, reply.host,
                                                     reply.epoch);
                   promise.set_value(reply.host);
                 });
  return promise.future();
}

MageFuture<common::NodeId> AsyncClient::locate(
    const common::ComponentName& name) {
  if (server_.registry().has_local(name) && !server_.in_transit(name)) {
    MagePromise<common::NodeId> promise;
    promise.set_value(transport_.self());
    return promise.future();
  }

  const bool shared = server_.directory().contains(name) &&
                      server_.directory().info(name).is_public;
  common::NodeId start = common::kNoNode;
  if (auto fwd = server_.registry().forward(name)) {
    // Private objects move only through their owner, so the forwarding
    // address is authoritative ("if the object is private, cloc always
    // accurately represents the bound object's current location", Section
    // 3.5); shared ones verify by walking the chain.
    if (!shared) {
      MagePromise<common::NodeId> promise;
      promise.set_value(*fwd);
      return promise.future();
    }
    start = *fwd;
  } else if (server_.directory().contains(name)) {
    start = server_.directory().info(name).home;
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
              sim_.stats().add("rts.unfenced_walks");
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
        // A waking event: the retry may complete the find inline.
        sim_.schedule_after(kChaseBackoffUs, [this, name, promise, attempt] {
          find_attempt(name, promise, attempt + 1);
        });
      });
}

// --- the chase --------------------------------------------------------------

template <typename R, typename Take>
MageFuture<R> AsyncClient::chase_into(Chase request, Take take) {
  // The caller's promise is completed straight from the chase — no
  // intermediate future per op.
  MagePromise<R> promise;
  auto op = std::make_shared<ChaseOp>();
  op->on_done = [promise, take = std::move(take)](Chased& done) mutable {
    promise.set_value(take(done));
  };
  op->on_error = [promise](std::string error) {
    promise.set_error(std::move(error));
  };
  start_chase(op, std::move(request));
  return promise.future();
}

MageFuture<AsyncClient::Chased> AsyncClient::chase(Chase request) {
  return chase_into<Chased>(std::move(request),
                            [](Chased& done) { return std::move(done); });
}

void AsyncClient::start_chase(const std::shared_ptr<ChaseOp>& op,
                              Chase request) {
  op->kind = request.kind;
  op->name = std::move(request.name);
  switch (op->kind) {
    case ChaseKind::Invoke:
    case ChaseKind::InvokeOneway:
      op->verb = op->kind == ChaseKind::Invoke ? proto_verbs::kInvoke
                                               : proto_verbs::kInvokeOneway;
      op->request = proto::InvokeRequest{op->name, std::move(request.method),
                                         std::move(request.args)}
                        .encode();
      break;
    case ChaseKind::Move:
      op->verb = proto_verbs::kMove;
      op->to = request.to;
      op->request = proto::MoveRequest{op->name, request.to}.encode();
      break;
    case ChaseKind::Lock:
      op->verb = proto_verbs::kLock;
      op->request =
          proto::LockRequest{op->name, request.target, request.activity}
              .encode();
      break;
  }
  op->at = common::is_no_node(request.start) ? believed_host(op->name)
                                             : request.start;
  if (common::is_no_node(op->at)) {
    relocate_and_resume(op, "no local knowledge of '" + op->name + "'");
  } else {
    send_op(op);
  }
}

void AsyncClient::send_op(const std::shared_ptr<ChaseOp>& op) {
  ++outstanding_;
  rmi::Transport::Callback done = [this, op](rmi::CallResult result) {
    --outstanding_;
    on_reply(op, std::move(result));
  };
  switch (op->kind) {
    case ChaseKind::Invoke:
    case ChaseKind::Move:
      channel().call(op->at, op->verb, op->request, std::move(done));
      return;
    case ChaseKind::InvokeOneway:
      // Direct channel unconditionally: one-way verbs are never
      // channel-retried (a duplicate would re-run the agent method).
      direct_->call(op->at, op->verb, op->request, std::move(done));
      return;
    case ChaseKind::Lock: {
      rmi::CallOptions options = policy_.attempt_options();
      options.max_attempts = kLockTransmissions;
      transport_.call(op->at, op->verb, op->request, std::move(done),
                      options);
      return;
    }
  }
}

void AsyncClient::on_reply(const std::shared_ptr<ChaseOp>& op,
                           rmi::CallResult result) {
  if (!result.ok) {
    // A move converges: if it actually completed, the retry at the stale
    // host is answered with a Moved hint and the chase ends at the target.
    // Any other verb may already have run, and a re-send under a fresh id
    // could run it twice.  Remote rejections fail every kind.
    if (op->kind == ChaseKind::Move &&
        rmi::error_kind(result.error) == rmi::ErrorKind::Transport) {
      relocate_and_resume(op, std::move(result.error));
    } else {
      fail_op(op, std::move(result.error));
    }
    return;
  }
  Chased ok;
  switch (op->kind) {
    case ChaseKind::Invoke:
    case ChaseKind::InvokeOneway: {
      auto reply = proto::InvokeReply::decode(result.body);
      ok.result = std::move(reply.result);
      on_status(op, reply, std::move(ok));
      return;
    }
    case ChaseKind::Move:
      on_status(op, proto::SimpleReply::decode(result.body), std::move(ok));
      return;
    case ChaseKind::Lock: {
      const auto reply = proto::LockReply::decode(result.body);
      ok.lock_id = reply.lock_id;
      ok.lock_kind = reply.kind;
      on_status(op, reply, std::move(ok));
      return;
    }
  }
}

template <typename ProtoReply>
void AsyncClient::on_status(const std::shared_ptr<ChaseOp>& op,
                            const ProtoReply& reply, Chased ok) {
  switch (reply.status) {
    case proto::Status::Ok:
      complete(op, std::move(ok), reply.hint_epoch);
      return;
    case proto::Status::Moved:
      if (accept_hint(op->name, reply.hint, reply.hint_epoch)) {
        count(async_redirects_, "rts.async_redirects");
        if (++op->attempts >= kMaxChaseAttempts) {
          give_up(op, "redirect chain exceeded the chase budget");
          return;
        }
        op->at = reply.hint;
        send_op(op);  // fresh hint: follow immediately, no backoff
        return;
      }
      relocate_and_resume(op, "stale Moved hint rejected");
      return;
    case proto::Status::NotFound:
      relocate_and_resume(op, "object is mid-flight or unknown at " +
                                  std::to_string(op->at.value()));
      return;
    case proto::Status::Error:
      fail_op(op, reply.error);
      return;
  }
}

void AsyncClient::complete(const std::shared_ptr<ChaseOp>& op, Chased ok,
                           std::uint64_t epoch) {
  ok.host = op->at;
  if (op->kind == ChaseKind::Move) {
    // The source's Ok carries the new placement epoch; record it so stale
    // chains left behind by the old placement are fenced off.
    note_epoch(op->name, epoch);
    server_.registry().update_forward(op->name, op->to, epoch);
    if (directory_client_ != nullptr) {
      // Asynchronous announce (fire-and-forget): readers that race it are
      // protected by the epoch fence.
      directory_client_->announce(
          proto::PlacementRecord{op->name, std::string{}, op->to,
                                 server_.directory().contains(op->name) &&
                                     server_.directory()
                                         .info(op->name)
                                         .is_public,
                                 epoch},
          [](bool) {});
    }
    ok.host = op->to;
  }
  op->on_done(ok);
}

void AsyncClient::relocate_and_resume(const std::shared_ptr<ChaseOp>& op,
                                      std::string why) {
  if (++op->attempts >= kMaxChaseAttempts) {
    give_up(op, why);
    return;
  }
  count(async_relocates_, "rts.async_relocates");
  // The object may be mid-flight between namespaces; back off, re-locate
  // from fresh knowledge, then resume the chase.
  sim_.schedule_after(
      kChaseBackoffUs,
      [this, op, why = std::move(why)]() mutable {
        locate(op->name)
            .then([this, op](common::NodeId host) {
              op->at = host;
              send_op(op);
            })
            .on_error([this, op, why = std::move(why)](
                          const std::string& locate_error) mutable {
              relocate_and_resume(op, why + "; then " + locate_error);
            });
      },
      sim::Wake::No);
}

void AsyncClient::give_up(const std::shared_ptr<ChaseOp>& op,
                          const std::string& why) {
  fail_op(op, "'" + common::verb_name(op->verb) + "' for '" + op->name +
                  "' did not converge after " +
                  std::to_string(op->attempts) + " attempts: " + why);
}

void AsyncClient::fail_op(const std::shared_ptr<ChaseOp>& op,
                          std::string error) {
  // Failure can surface from a backoff timer event; wake so an enclosing
  // run_until re-checks its predicate.
  sim_.wake();
  op->on_error(std::move(error));
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
    count(async_invokes_, "rts.async_invokes");
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
    count(async_invokes_, "rts.async_invokes");
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
    count(async_moves_, "rts.async_moves");
    return done.host;
  });
}

// --- probes -----------------------------------------------------------------

MageFuture<double> AsyncClient::load_of(common::NodeId node) {
  MagePromise<double> promise;
  ++outstanding_;
  channel().call(node, proto_verbs::kGetLoad, {},
                 [this, promise](rmi::CallResult result) {
                   --outstanding_;
                   if (!result.ok) {
                     promise.set_error(std::move(result.error));
                     return;
                   }
                   promise.set_value(
                       proto::LoadReply::decode(result.body).load);
                 });
  return promise.future();
}

MageFuture<std::vector<std::pair<std::string, std::uint64_t>>>
AsyncClient::manifest(common::NodeId node, const std::string& prefix) {
  MagePromise<std::vector<std::pair<std::string, std::uint64_t>>> promise;
  proto::ManifestRequest request;
  request.prefix = prefix;
  ++outstanding_;
  channel().call(node, proto_verbs::kManifest, request.encode(),
                 [this, promise](rmi::CallResult result) {
                   --outstanding_;
                   if (!result.ok) {
                     promise.set_error(std::move(result.error));
                     return;
                   }
                   promise.set_value(
                       proto::ManifestReply::decode(result.body).entries);
                 });
  return promise.future();
}

MageFuture<Unit> AsyncClient::ping(common::NodeId node) {
  MagePromise<Unit> promise;
  ++outstanding_;
  channel().call(node, proto_verbs::kPing, {},
                 [this, promise](rmi::CallResult result) {
                   --outstanding_;
                   if (!result.ok) {
                     promise.set_error(std::move(result.error));
                     return;
                   }
                   promise.set_value(Unit{});
                 });
  return promise.future();
}

}  // namespace mage::rts
