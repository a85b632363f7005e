#include "rts/server.hpp"

#include <utility>

#include "common/error.hpp"

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// Longest forwarding chain a lookup will walk before declaring a cycle.
constexpr std::uint32_t kMaxLookupHops = 32;

namespace {

// Acknowledges an arrival with a plain Ok.
void acknowledge(rmi::Replier replier) {
  replier.ok(proto::SimpleReply{}.encode());
}

}  // namespace

MageServer::MageServer(rmi::Transport& transport, const ClassWorld& world,
                       const Directory& directory)
    : transport_(transport),
      world_(world),
      directory_(directory),
      registry_(transport.self()),
      locks_(transport.self()) {
  register_services();
}

sim::Simulation& MageServer::sim() {
  // The node's own context: the shard its handlers run on.
  return transport_.network().node_sim(transport_.self());
}

void MageServer::register_services() {
  auto bind_to = [this](void (MageServer::*fn)(common::NodeId, const Body&,
                                               rmi::Replier)) {
    return [this, fn](common::NodeId caller, const Body& body,
                      rmi::Replier replier) {
      (this->*fn)(caller, body, std::move(replier));
    };
  };

  transport_.register_service(proto_verbs::kLookup,
                              bind_to(&MageServer::handle_lookup));
  transport_.register_service(proto_verbs::kInvoke,
                              bind_to(&MageServer::handle_invoke));
  transport_.register_service(proto_verbs::kInvokeOneway,
                              bind_to(&MageServer::handle_invoke_oneway));
  transport_.register_service(proto_verbs::kFetchResult,
                              bind_to(&MageServer::handle_fetch_result));
  transport_.register_service(proto_verbs::kLock,
                              bind_to(&MageServer::handle_lock));
  transport_.register_service(proto_verbs::kUnlock,
                              bind_to(&MageServer::handle_unlock));
  transport_.register_service(proto_verbs::kGetLoad,
                              bind_to(&MageServer::handle_get_load));
  transport_.register_service(proto_verbs::kManifest,
                              bind_to(&MageServer::handle_manifest));
  transport_.register_service(
      proto_verbs::kPing,
      [](common::NodeId, const Body& body, rmi::Replier replier) {
        replier.ok(body);
      });
  transport_.register_service(
      proto_verbs::kResolveServer,
      [](common::NodeId, const Body&, rmi::Replier replier) {
        replier.ok({});  // "here is my MageExternalServer stub"
      });
  transport_.register_service(proto_verbs::kStaticGet,
                              bind_to(&MageServer::handle_static_get));
  transport_.register_service(proto_verbs::kStaticPut,
                              bind_to(&MageServer::handle_static_put));
  transport_.register_service(proto_verbs::kDiscover,
                              bind_to(&MageServer::handle_discover));

  // MageExternalServer role: migration-family operations pay the one-time
  // engine warm-up ("priming the MAGE engine", Section 5).
  register_warmable(proto_verbs::kClassCheck,
                    bind_to(&MageServer::handle_class_check));
  register_warmable(proto_verbs::kFetchClass,
                    bind_to(&MageServer::handle_fetch_class));
  register_warmable(proto_verbs::kLoadClass,
                    bind_to(&MageServer::handle_load_class));
  register_warmable(proto_verbs::kInstantiate,
                    bind_to(&MageServer::handle_instantiate));
  register_warmable(proto_verbs::kMove, bind_to(&MageServer::handle_move));
  register_warmable(proto_verbs::kTransfer,
                    bind_to(&MageServer::handle_transfer));
  register_warmable(proto_verbs::kExec, bind_to(&MageServer::handle_exec));
}

void MageServer::register_warmable(common::VerbId verb,
                                   rmi::Transport::Service fn) {
  transport_.register_service(
      verb, [this, fn = std::move(fn)](common::NodeId caller, const Body& body,
                                       rmi::Replier replier) {
        if (warmed_) {
          fn(caller, body, std::move(replier));
          return;
        }
        warmed_ = true;
        sim().stats().add("rts.engine_warmups");
        sim().schedule_after(
            model().engine_warmup_us,
            [fn, caller, body, replier = std::move(replier)]() mutable {
              fn(caller, body, std::move(replier));
            });
      });
}

bool MageServer::check_access(Operation op, common::NodeId caller,
                              rmi::Replier& replier) {
  if (caller == self()) return true;  // a namespace always trusts itself
  const std::string& caller_domain =
      transport_.network().domain(caller);
  if (access_.permitted(op, caller, caller_domain)) return true;
  access_.count_denial();
  sim().stats().add("rts.access_denials");
  replier.error(std::string("access denied: ") + operation_name(op) +
                " by node " + std::to_string(caller.value()) +
                (caller_domain.empty() ? "" : " (domain " + caller_domain +
                                                  ")") +
                " rejected by node " + std::to_string(self().value()) +
                "'s policy");
  return false;
}

MageServer::Hint MageServer::locate_hint(const Registry::Record* record) {
  if (record == nullptr) return {};
  if (record->in_transit) {
    // The in-flight transfer will bind at our epoch + 1 on arrival.
    return {proto::Status::Moved, *record->in_transit, record->epoch + 1};
  }
  if (record->forward) {
    return {proto::Status::Moved, *record->forward, record->epoch};
  }
  return {};
}

template <typename Reply>
bool MageServer::here_or_hint(const Registry::Record* record,
                              rmi::Replier& replier, const char* why) {
  if (record != nullptr && record->hosted()) return true;
  const Hint hint = locate_hint(record);
  Reply reply;
  reply.status = hint.status;
  reply.hint = hint.node;
  reply.hint_epoch = hint.epoch;
  reply.error = why;
  replier.ok(reply.encode());
  return false;
}

// --- registry lookup (forwarding chain + path collapsing) --------------------

void MageServer::handle_lookup(common::NodeId caller, const Body& body,
                               rmi::Replier replier) {
  if (!check_access(Operation::Lookup, caller, replier)) return;
  auto request = proto::LookupRequest::decode(body);
  sim().stats().bump(lookups_, "rts.lookups");
  const Registry::Record* record = registry_.find(request.name);

  // An in-transit object still has a local binding, but answering "here"
  // would hand out a namespace it is about to leave; chase the transfer.
  if (record != nullptr && record->hosted()) {
    proto::LookupReply reply;
    reply.status = proto::Status::Ok;
    reply.host = self();
    reply.epoch = record->epoch;
    replier.ok(reply.encode());
    return;
  }

  if (request.hops >= kMaxLookupHops) {
    proto::LookupReply reply;
    reply.status = proto::Status::Error;
    reply.error = "forwarding chain exceeded " +
                  std::to_string(kMaxLookupHops) + " hops (cycle?)";
    replier.ok(reply.encode());
    return;
  }

  const Hint hint = locate_hint(record);
  if (hint.status != proto::Status::Moved ||
      (request.min_epoch != 0 && hint.epoch != 0 &&
       hint.epoch < request.min_epoch)) {
    // Either we know nothing, or what we know predates what the caller has
    // already confirmed — walking our chain could only lead somewhere the
    // object left (epoch fence: never hand out placement history that runs
    // backwards, e.g. toward a crashed ex-home).
    proto::LookupReply reply;
    reply.status = proto::Status::NotFound;
    reply.error = hint.status == proto::Status::Moved
                      ? "forwarding knowledge is staler than the caller's"
                      : "no binding and no forwarding address";
    replier.ok(reply.encode());
    return;
  }

  // Walk the chain: ask the next hop, collapse our forwarding entry when
  // the answer comes back ("as the result returns, each server updates its
  // forwarding address", Section 4.1).
  proto::LookupRequest forwarded;
  forwarded.name = request.name;
  forwarded.hops = request.hops + 1;
  forwarded.min_epoch = request.min_epoch;
  sim().stats().bump(lookup_hops_, "rts.lookup_hops");
  transport_.call(
      hint.node, proto_verbs::kLookup, forwarded.encode(),
      [this, name = request.name,
       replier = std::move(replier)](rmi::CallResult result) mutable {
        if (!result.ok) {
          proto::LookupReply reply;
          reply.status = proto::Status::Error;
          reply.error = result.error;
          replier.ok(reply.encode());
          return;
        }
        auto reply = proto::LookupReply::decode(result.body);
        if (reply.status == proto::Status::Ok) {
          // Collapse the path, fenced: a reply that raced a newer migration
          // must not roll our knowledge back.
          registry_.update_forward(name, reply.host, reply.epoch);
        }
        replier.ok(reply.encode());
      });
}

// --- class shipping -----------------------------------------------------------

void MageServer::handle_class_check(common::NodeId caller, const Body& body,
                                    rmi::Replier replier) {
  (void)caller;
  auto request = proto::ClassCheckRequest::decode(body);
  proto::ClassCheckReply reply;
  reply.cached = class_cache_.has(request.class_name);
  replier.ok(reply.encode());
}

void MageServer::handle_fetch_class(common::NodeId caller, const Body& body,
                                    rmi::Replier replier) {
  if (!check_access(Operation::FetchClass, caller, replier)) return;
  auto request = proto::FetchClassRequest::decode(body);
  if (!class_cache_.has(request.class_name) ||
      !world_.contains(request.class_name)) {
    replier.error("class '" + request.class_name +
                  "' is not available on node " +
                  std::to_string(self().value()));
    return;
  }
  sim().stats().add("rts.class_fetches");
  proto::ClassImage image;
  image.class_name = request.class_name;
  image.code_size = world_.descriptor(request.class_name).code_size;
  replier.ok(image.encode());
}

void MageServer::handle_load_class(common::NodeId caller, const Body& body,
                                   rmi::Replier replier) {
  if (!check_access(Operation::LoadClass, caller, replier)) return;
  auto request = proto::LoadClassRequest::decode(body);
  if (!world_.contains(request.image.class_name)) {
    replier.error("class '" + request.image.class_name +
                  "' has no registered implementation");
    return;
  }
  if (class_cache_.has(request.image.class_name)) {
    proto::SimpleReply reply;
    replier.ok(reply.encode());
    return;
  }
  sim().stats().add("rts.class_loads");
  sim().schedule_after(model().class_load_us,
                       [this, request, replier = std::move(replier)]() mutable {
    class_cache_.on_image_received(request.image.class_name);
    proto::SimpleReply reply;
    replier.ok(reply.encode());
  });
}

void MageServer::ensure_class_then(const std::string& class_name,
                                   common::NodeId source, EnsureClassFn then) {
  if (class_cache_.has(class_name)) {
    then(true, {});
    return;
  }
  if (common::is_no_node(source) || source == self()) {
    then(false, "class '" + class_name + "' missing and no source to fetch");
    return;
  }
  proto::FetchClassRequest request{class_name};
  transport_.call(
      source, proto_verbs::kFetchClass, request.encode(),
      [this, class_name,
       then = std::move(then)](rmi::CallResult result) mutable {
        if (!result.ok) {
          then(false, result.error);
          return;
        }
        sim().stats().add("rts.class_loads");
        sim().schedule_after(model().class_load_us,
                             [this, class_name,
                              then = std::move(then)]() mutable {
          class_cache_.on_image_received(class_name);
          then(true, {});
        });
      });
}

// --- arrival ---------------------------------------------------------------------

template <typename Reply, typename Then>
void MageServer::arrive(common::NodeId caller, Arrival arrival,
                        rmi::Replier replier, Then then) {
  const std::size_t state_bytes = arrival.state ? arrival.state->size() : 0;
  if (!resources_.admits_object(registry_.local_count()) ||
      !resources_.admits_transfer(state_bytes)) {
    replier.error(
        "capacity exceeded: node " + std::to_string(self().value()) +
        (arrival.state ? " rejects transfer of '" + arrival.name + "' (" +
                             std::to_string(state_bytes) + " state bytes)"
                       : std::string(" will not host another object")));
    sim().stats().add("rts.capacity_rejections");
    return;
  }
  // Read before the continuation takes `arrival` over.
  const std::string class_name = arrival.class_name;
  const common::NodeId source =
      common::is_no_node(arrival.class_source) ? caller : arrival.class_source;
  ensure_class_then(
      class_name, source,
      [this, arrival = std::move(arrival), replier = std::move(replier),
       then = std::move(then)](bool ok, std::string error) mutable {
        if (!ok) {
          Reply reply;
          reply.status = proto::Status::Error;
          reply.error = std::move(error);
          replier.ok(reply.encode());
          return;
        }
        sim().schedule_after(
            model().instantiate_us,
            [this, arrival = std::move(arrival), replier = std::move(replier),
             then = std::move(then)]() mutable {
          std::unique_ptr<MageObject> object;
          if (arrival.state) {
            serial::Reader state(*arrival.state);
            object = world_.deserialize(arrival.class_name, state);
          } else {
            object = world_.instantiate(arrival.class_name);
          }
          registry_.bind(arrival.name, std::move(object), arrival.epoch);
          sim().stats().add(arrival.state ? "rts.transfers_in"
                                          : "rts.instantiations");
          then(std::move(replier));
        });
      });
}

void MageServer::handle_instantiate(common::NodeId caller, const Body& body,
                                    rmi::Replier replier) {
  if (!check_access(Operation::Instantiate, caller, replier)) return;
  auto request = proto::InstantiateRequest::decode(body);
  arrive<proto::SimpleReply>(caller,
                             {.name = request.object_name,
                              .class_name = request.class_name,
                              .class_source = request.class_source},
                             std::move(replier), acknowledge);
}

// Condensed remote evaluation (the Section 5 optimization): class check,
// instantiation, invocation and result return ride one RMI exchange.
void MageServer::handle_exec(common::NodeId caller, const Body& body,
                             rmi::Replier replier) {
  if (!check_access(Operation::Instantiate, caller, replier)) return;
  auto request = proto::ExecRequest::decode(body);
  arrive<proto::InvokeReply>(
      caller,
      {.name = request.object_name,
       .class_name = request.class_name,
       .class_source = request.class_source},
      std::move(replier),
      [this, invoke = proto::InvokeRequest{request.object_name,
                                           request.method,
                                           std::move(request.args)}](
          rmi::Replier replier) mutable {
        const auto cost = method_cost(invoke.name, invoke.method);
        sim().stats().add("rts.condensed_execs");
        sim().schedule_after(cost, [this, invoke = std::move(invoke),
                                    replier = std::move(replier)]() mutable {
          replier.ok(run_method(invoke).encode());
        });
      });
}

void MageServer::handle_transfer(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  if (!check_access(Operation::TransferIn, caller, replier)) return;
  auto request = proto::TransferRequest::decode(body);
  arrive<proto::SimpleReply>(caller,
                             {.name = request.name,
                              .class_name = request.class_name,
                              .state = std::move(request.state),
                              .epoch = request.epoch},
                             std::move(replier), acknowledge);
}

// --- migration (the Figure 7 protocol, server side) ----------------------------

void MageServer::migrate(const common::ComponentName& name, common::NodeId to,
                         common::UniqueFunction<void(Migration)> done) {
  MageObject& object = registry_.local(name);
  serial::Writer state;
  object.serialize(state);
  // This migration advances the object's placement history by one epoch:
  // the destination binds at it, every hint left behind carries it, and
  // anything older is fenced out downstream.
  const std::uint64_t epoch = registry_.epoch_of(name) + 1;
  proto::TransferRequest transfer;
  transfer.name = name;
  transfer.class_name = object.class_name();
  const ComponentInfo* info = directory_.find(name);
  transfer.is_public = info != nullptr && info->is_public;
  transfer.epoch = epoch;
  transfer.state = state.take();

  registry_.set_in_transit(name, to);
  transport_.call(
      to, proto_verbs::kTransfer, transfer.encode(),
      [this, name, to, epoch,
       done = std::move(done)](rmi::CallResult result) mutable {
        registry_.set_in_transit(name, std::nullopt);
        if (!result.ok) {
          done({std::move(result.error), false, 0});
          return;
        }
        auto reply = proto::SimpleReply::decode(result.body);
        if (reply.status != proto::Status::Ok) {
          done({std::move(reply.error), true, 0});
          return;
        }
        // The destination has the object: retire the local copy and leave
        // a forwarding address behind, fenced at the migration's epoch.
        registry_.unbind(name).reset();
        registry_.update_forward(name, to, epoch);
        locks_.on_object_departed(name, to);
        sim().stats().add("rts.migrations");
        done({{}, false, epoch});
      });
}

void MageServer::handle_move(common::NodeId caller, const Body& body,
                             rmi::Replier replier) {
  if (!check_access(Operation::MoveOut, caller, replier)) return;
  auto request = proto::MoveRequest::decode(body);
  const Registry::Record* record = registry_.find(request.name);
  if (!here_or_hint<proto::SimpleReply>(record, replier)) return;

  if (request.to == self()) {
    proto::SimpleReply reply;  // already at the target: nothing to move
    reply.hint = self();
    reply.hint_epoch = record->epoch;
    replier.ok(reply.encode());
    return;
  }

  migrate(request.name, request.to,
          [to = request.to,
           replier = std::move(replier)](Migration moved) mutable {
            proto::SimpleReply reply;
            if (!moved.error.empty()) {
              reply.status = proto::Status::Error;
              reply.error = (moved.rejected ? "transfer rejected: "
                                            : "transfer failed: ") +
                            moved.error;
            } else {
              // The Ok reply tells the mover where the object now is and
              // at which epoch (so it can fence older hints).
              reply.hint = to;
              reply.hint_epoch = moved.epoch;
            }
            replier.ok(reply.encode());
          });
}

// --- invocation -------------------------------------------------------------------

proto::InvokeReply MageServer::run_method(MageObject& object,
                                          const MethodEntry* entry,
                                          const std::string& method,
                                          const serial::Buffer& args) {
  proto::InvokeReply reply;
  try {
    if (entry == nullptr) entry = &world_.method(object.class_name(), method);
    reply.result = entry->fn(object, args);
    reply.status = proto::Status::Ok;
  } catch (const common::MageError& e) {
    reply.status = proto::Status::Error;
    reply.error = e.what();
  }
  return reply;
}

proto::InvokeReply MageServer::run_method(const proto::InvokeRequest& request) {
  try {
    return run_method(registry_.local(request.name), nullptr, request.method,
                      request.args);
  } catch (const common::MageError& e) {  // not bound here
    proto::InvokeReply reply;
    reply.status = proto::Status::Error;
    reply.error = e.what();
    return reply;
  }
}

common::SimDuration MageServer::method_cost(const common::ComponentName& name,
                                            const std::string& method) const {
  const Registry::Record* record = registry_.find(name);
  if (record == nullptr || record->object == nullptr) return 0;
  const MethodEntry* entry =
      world_.find_method(record->object->class_name(), method);
  return entry == nullptr ? 0 : entry->cost_us;
}

void MageServer::handle_invoke(common::NodeId caller, const Body& body,
                               rmi::Replier replier) {
  if (!check_access(Operation::Invoke, caller, replier)) return;
  auto request = proto::InvokeRequest::decode(body);
  Registry::Record* record = registry_.find(request.name);
  if (!here_or_hint<proto::InvokeReply>(record, replier)) return;

  sim().stats().bump(invocations_, "rts.invocations");
  // Resolved once: the record, the bound object's class and its method.
  // The CPU cost is the method's of the object bound now (0 when the class
  // or method is unknown: run_method then produces the error reply).
  const MethodEntry* entry =
      world_.find_method(record->object->class_name(), request.method);
  auto execute = [this, record, entry, binding = record->binding,
                  method = std::move(request.method),
                  args = std::move(request.args),
                  replier = std::move(replier)]() mutable {
    // Re-validate at execution time: a migration that started while this
    // invocation waited its CPU turn has already serialized the object's
    // state, so executing now would mutate a doomed local copy and the
    // update would silently vanish at the new host.  Redirect instead —
    // the method has not run, so the caller's retry at the destination is
    // still exactly-once.  A name rebound meanwhile runs the method of
    // the object bound now.
    if (!here_or_hint<proto::InvokeReply>(
            record, replier, "object left while the invocation awaited CPU")) {
      return;
    }
    if (record->binding != binding) entry = nullptr;
    replier.ok(run_method(*record->object, entry, method, args).encode());
  };
  static_assert(sizeof(execute) <= common::kInlineCapacity<void()>,
                "the invoke's CPU-cost event must not spill to the heap");
  sim().schedule_after(entry == nullptr ? 0 : entry->cost_us,
                       std::move(execute));
}

void MageServer::handle_invoke_oneway(common::NodeId caller, const Body& body,
                                      rmi::Replier replier) {
  if (!check_access(Operation::Invoke, caller, replier)) return;
  auto request = proto::InvokeRequest::decode(body);
  if (!here_or_hint<proto::InvokeReply>(registry_.find(request.name),
                                        replier)) {
    return;
  }

  // Mobile-agent semantics (Section 3.5): the invocation is asynchronous
  // and "the result stays at the remote host".  Acknowledge first, execute
  // after, park the result for a later fetch_result.
  proto::InvokeReply ack;
  ack.status = proto::Status::Ok;
  replier.ok(ack.encode());

  sim().stats().add("rts.oneway_invocations");
  const common::SimDuration cost = method_cost(request.name, request.method);
  sim().schedule_after(cost, [this, request = std::move(request)]() mutable {
    auto reply = run_method(request);
    registry_.park_result(request.name, reply.status == proto::Status::Ok
                                            ? std::move(reply.result)
                                            : serial::Buffer{});
  });
}

void MageServer::handle_fetch_result(common::NodeId caller, const Body& body,
                                     rmi::Replier replier) {
  (void)caller;
  auto request = proto::FetchResultRequest::decode(body);
  proto::InvokeReply reply;
  if (auto result = registry_.take_result(request.name)) {
    reply.status = proto::Status::Ok;
    reply.result = std::move(*result);
  } else {
    reply.status = proto::Status::Error;
    reply.error = "no parked result for '" + request.name + "'";
  }
  replier.ok(reply.encode());
}

// --- locking ---------------------------------------------------------------------

void MageServer::handle_lock(common::NodeId caller, const Body& body,
                             rmi::Replier replier) {
  if (!check_access(Operation::Lock, caller, replier)) return;
  auto request = proto::LockRequest::decode(body);
  if (!here_or_hint<proto::LockReply>(registry_.find(request.name), replier)) {
    return;
  }

  // Exactly one of the two callbacks fires; the one-shot Replier is shared
  // between them (LockManager callbacks must be copyable std::functions).
  auto shared_replier = std::make_shared<rmi::Replier>(std::move(replier));
  locks_.request(
      request.name, common::ActivityId{request.activity},
      request.target,
      [this, shared_replier](LockGrant grant) {
        sim().stats().add(grant.kind == LockKind::Stay ? "rts.locks_stay"
                                                       : "rts.locks_move");
        proto::LockReply reply;
        reply.status = proto::Status::Ok;
        reply.lock_id = grant.id.value();
        reply.kind = grant.kind;
        shared_replier->ok(reply.encode());
      },
      [shared_replier](common::NodeId new_host) {
        proto::LockReply reply;
        reply.status = proto::Status::Moved;
        reply.hint = new_host;
        reply.error = "object departed while the lock request was queued";
        shared_replier->ok(reply.encode());
      });
}

void MageServer::handle_unlock(common::NodeId caller, const Body& body,
                               rmi::Replier replier) {
  (void)caller;
  auto request = proto::UnlockRequest::decode(body);
  proto::SimpleReply reply;
  if (!locks_.release(request.name, common::LockId{request.lock_id})) {
    reply.status = proto::Status::Error;
    reply.error = "lock " + std::to_string(request.lock_id) +
                  " does not hold '" + request.name + "'";
  }
  replier.ok(reply.encode());
}

// --- misc ----------------------------------------------------------------------

void MageServer::handle_get_load(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  (void)caller;
  (void)body;
  proto::LoadReply reply;
  reply.load = transport_.network().load(self());
  replier.ok(reply.encode());
}

void MageServer::handle_manifest(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  (void)caller;
  auto request = proto::ManifestRequest::decode(body);
  proto::ManifestReply reply;
  for (const auto& name : registry_.local_names()) {
    if (name.rfind(request.prefix, 0) != 0) continue;
    // A component mid-transfer away from here is already leaving; offering
    // it as a migration victim would race its own move.
    const Registry::Record* record = registry_.find(name);
    if (record->in_transit) continue;
    reply.entries.emplace_back(name, record->epoch);
  }
  replier.ok(reply.encode());
}

void MageServer::handle_discover(common::NodeId caller, const Body& body,
                                 rmi::Replier replier) {
  (void)caller;
  auto request = proto::DiscoverRequest::decode(body);
  proto::DiscoverReply reply;
  reply.offers = resource_board_.offers(request.kind);
  reply.capacity = resource_board_.capacity(request.kind);
  replier.ok(reply.encode());
}

// --- class statics (home-station coherency) ----------------------------------
//
// Every read and write of a class's static fields is served by the class's
// statics home, so class data is trivially sequentially consistent — the
// coherency extension Section 4.2 says cloning classes requires.

void MageServer::handle_static_get(common::NodeId caller, const Body& body,
                                   rmi::Replier replier) {
  (void)caller;
  auto request = proto::StaticGetRequest::decode(body);
  if (!world_.contains(request.class_name) ||
      world_.descriptor(request.class_name).statics_home != self()) {
    replier.error("node " + std::to_string(self().value()) +
                  " is not the statics home of class '" +
                  request.class_name + "'");
    return;
  }
  proto::InvokeReply reply;
  const auto class_it = statics_.find(request.class_name);
  if (class_it != statics_.end()) {
    if (auto it = class_it->second.find(request.key);
        it != class_it->second.end()) {
      reply.status = proto::Status::Ok;
      reply.result = it->second;
      replier.ok(reply.encode());
      return;
    }
  }
  reply.status = proto::Status::NotFound;
  reply.error = "no static '" + request.key + "' on class '" +
                request.class_name + "'";
  replier.ok(reply.encode());
}

void MageServer::handle_static_put(common::NodeId caller, const Body& body,
                                   rmi::Replier replier) {
  (void)caller;
  auto request = proto::StaticPutRequest::decode(body);
  if (!world_.contains(request.class_name) ||
      world_.descriptor(request.class_name).statics_home != self()) {
    replier.error("node " + std::to_string(self().value()) +
                  " is not the statics home of class '" +
                  request.class_name + "'");
    return;
  }
  statics_[request.class_name][request.key] = std::move(request.value);
  sim().stats().add("rts.static_writes");
  proto::SimpleReply reply;
  replier.ok(reply.encode());
}

}  // namespace mage::rts
