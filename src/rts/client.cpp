#include "rts/client.hpp"

#include <utility>

namespace mage::rts {

namespace proto_verbs = proto::verbs;

// fetch_result polls its host until the one-way execution has parked a
// result: this many tries, this far apart.  (A poll at one host, not a
// chase.)
constexpr int kFetchResultPolls = 12;
constexpr common::SimDuration kFetchResultPollUs = 10'000;

MageClient::MageClient(rmi::Transport& transport, MageServer& local_server,
                       Directory& directory, const ClassWorld& world,
                       common::ActivityId activity)
    : transport_(transport),
      local_server_(local_server),
      directory_(directory),
      world_(world),
      activity_(activity),
      async_(local_server) {}

const net::CostModel& MageClient::model() const {
  return transport_.network().cost_model();
}

void MageClient::charge(common::SimDuration d) {
  if (d > 0) simulation().run_for(d);
}

// --- component lifecycle -------------------------------------------------------

MageObject& MageClient::create_component(const common::ComponentName& name,
                                         const std::string& class_name,
                                         bool is_public) {
  local_server_.class_cache().install(class_name);
  auto object = world_.instantiate(class_name);
  MageObject& ref = *object;
  local_server_.registry().bind(name, std::move(object));
  directory_.announce(ComponentInfo{name, class_name, self(), is_public});
  note_epoch(name, 1);
  return ref;
}

MageObject& MageClient::local_object(const common::ComponentName& name) {
  return local_server_.registry().local(name);
}

bool MageClient::has_local(const common::ComponentName& name) const {
  return local_server_.hosts(name);
}

bool MageClient::is_shared(const common::ComponentName& name) const {
  return directory_.contains(name) && directory_.info(name).is_public;
}

// --- registry -----------------------------------------------------------------

common::NodeId MageClient::find(const common::ComponentName& name) {
  // Local MAGE registry consult: a direct in-JVM call, not an RMI.
  charge(model().registry_consult_us);
  auto located = wait(async_.find(name), proto_verbs::kLookup);
  if (located.has_error()) {
    if (rmi::error_kind(located.error()) == rmi::ErrorKind::Transport) {
      rmi::throw_error(located.error());
    }
    throw common::NotFoundError(name, located.error());
  }
  return located.value();
}

// --- class & object movement ------------------------------------------------------

common::NodeId MageClient::move(const common::ComponentName& name,
                                common::NodeId to, common::NodeId hint) {
  AsyncClient::Chase op;
  op.kind = AsyncClient::ChaseKind::Move;
  op.name = name;
  op.to = to;
  op.start = common::is_no_node(hint) ? find(name) : hint;
  return get<common::MageError>(async_.chase(std::move(op)),
                                proto_verbs::kMove,
                                "move of '" + name + "' failed: ")
      .host;
}

void MageClient::ensure_class_at(common::NodeId target,
                                 const std::string& class_name) {
  // Pushing a class implies having it: it is on this node's classpath.
  local_server_.class_cache().install(class_name);
  if (target == self()) return;

  const auto known_key = std::make_pair(target, class_name);
  if (classes_pushed_.contains(known_key)) {
    // Warm path: we know the target holds the image; the traditional
    // REV/MA contract still revalidates it with one small round trip.
    proto::ClassCheckRequest check{class_name};
    auto reply = proto::ClassCheckReply::decode(transport_.call_sync(
        target, proto_verbs::kClassCheck, check.encode()));
    if (reply.cached) return;
    classes_pushed_.erase(known_key);  // target lost it; re-push below
  }

  // Cold path: one optimistic push carrying the image (the target ignores
  // the bytes if it already has the class).
  proto::LoadClassRequest load;
  load.image.class_name = class_name;
  load.image.code_size = world_.descriptor(class_name).code_size;
  auto load_reply = proto::SimpleReply::decode(transport_.call_sync(
      target, proto_verbs::kLoadClass, load.encode()));
  if (load_reply.status != proto::Status::Ok) {
    throw common::MageError("pushing class '" + class_name + "' failed: " +
                            load_reply.error);
  }
  classes_pushed_.insert(known_key);
}

void MageClient::fetch_class_to_local(common::NodeId source,
                                      const std::string& class_name) {
  if (local_server_.class_cache().has(class_name)) {
    // Warm path: the traditional COD contract still revalidates its cached
    // copy against the origin on every bind — one small round trip.
    proto::ClassCheckRequest check{class_name};
    auto check_reply = proto::ClassCheckReply::decode(transport_.call_sync(
        source, proto_verbs::kClassCheck, check.encode()));
    if (check_reply.cached) return;
    // The origin lost the class (should not happen in practice); fall
    // through and re-fetch.
  }

  // Cold path: a single fetch round trip carries the image (the fetch
  // subsumes the check).
  proto::FetchClassRequest fetch{class_name};
  auto image_bytes =
      transport_.call_sync(source, proto_verbs::kFetchClass, fetch.encode());
  (void)proto::ClassImage::decode(image_bytes);
  charge(model().class_load_us);
  local_server_.class_cache().on_image_received(class_name);
  simulation().stats().add("rts.class_loads");
}

void MageClient::instantiate_at(common::NodeId target,
                                const std::string& class_name,
                                const common::ComponentName& object_name,
                                bool is_public) {
  // The client is shipping its own code: the class image is on this
  // namespace's classpath by definition.
  local_server_.class_cache().install(class_name);
  proto::InstantiateRequest request;
  request.class_name = class_name;
  request.object_name = object_name;
  request.is_public = is_public;
  request.class_source = self();
  auto reply = proto::SimpleReply::decode(transport_.call_sync(
      target, proto_verbs::kInstantiate, request.encode()));
  if (reply.status != proto::Status::Ok) {
    throw common::MageError("instantiate of '" + object_name + "' at node " +
                            std::to_string(target.value()) + " failed: " +
                            reply.error);
  }
  if (!directory_.contains(object_name)) {
    directory_.announce(
        ComponentInfo{object_name, class_name, self(), is_public});
  }
  local_server_.registry().update_forward(object_name, target);
}

void MageClient::resolve_server(common::NodeId target) {
  (void)transport_.call_sync(target, proto_verbs::kResolveServer, {});
}

void MageClient::transfer_out(const common::ComponentName& name,
                              common::NodeId to) {
  if (!has_local(name)) {
    throw common::NotFoundError(name, "transfer_out requires a local object");
  }
  if (to == self()) return;
  // The server's weak migration, blocked on: one mage.transfer.
  MagePromise<MageServer::Migration> promise;
  local_server_.migrate(name, to, [promise](MageServer::Migration moved) {
    promise.set_value(std::move(moved));
  });
  const auto moved = wait(promise.future(), proto_verbs::kTransfer).value();
  if (moved.error.empty()) return;
  // A failed call throws what call_sync would; a refusal, a MageError.
  if (!moved.rejected) rmi::throw_error(moved.error);
  throw common::MageError("transfer of '" + name + "' failed: " +
                          moved.error);
}

// --- invocation --------------------------------------------------------------------

serial::Buffer MageClient::invoke_raw(common::NodeId& cloc,
                                      const common::ComponentName& name,
                                      const std::string& method,
                                      serial::Buffer args) {
  if (common::is_no_node(cloc)) cloc = find(name);
  if (cloc == self() && has_local(name)) {
    // LPC fast path: same namespace, no marshalling, no wire.
    charge(model().local_invoke_us);
    MageObject& object = local_server_.registry().local(name);
    const MethodEntry& entry = world_.method(object.class_name(), method);
    charge(entry.cost_us);
    simulation().stats().add("rts.local_invocations");
    return entry.fn(object, args);
  }
  AsyncClient::Chase op;
  op.name = name;
  op.start = cloc;
  op.method = method;
  op.args = std::move(args);
  auto done = get(async_.chase(std::move(op)), proto_verbs::kInvoke);
  cloc = done.host;
  return std::move(done.result);
}

void MageClient::invoke_oneway_raw(common::NodeId& cloc,
                                   const common::ComponentName& name,
                                   const std::string& method,
                                   serial::Buffer args) {
  if (common::is_no_node(cloc)) cloc = find(name);
  AsyncClient::Chase op;
  op.kind = AsyncClient::ChaseKind::InvokeOneway;
  op.name = name;
  op.start = cloc;
  op.method = method;
  op.args = std::move(args);
  // Acknowledged; execution continues remotely.
  cloc = get(async_.chase(std::move(op)), proto_verbs::kInvokeOneway).host;
}

serial::Buffer MageClient::fetch_result_raw(
    common::NodeId& cloc, const common::ComponentName& name) {
  if (common::is_no_node(cloc)) cloc = find(name);
  proto::FetchResultRequest request{name};
  for (int poll = 0; poll < kFetchResultPolls; ++poll) {
    auto reply = proto::InvokeReply::decode(transport_.call_sync(
        cloc, proto_verbs::kFetchResult, request.encode()));
    if (reply.status == proto::Status::Ok) return std::move(reply.result);
    // The one-way execution may not have finished yet; wait and retry.
    charge(kFetchResultPollUs);
  }
  throw common::RemoteInvocationError("no parked result for '" + name + "'");
}

// --- condensed remote evaluation ------------------------------------------------------------

serial::Buffer MageClient::exec_at_raw(common::NodeId target,
                                       const std::string& class_name,
                                       const common::ComponentName& name,
                                       const std::string& method,
                                       serial::Buffer args) {
  local_server_.class_cache().install(class_name);  // shipping our own code
  proto::ExecRequest request;
  request.class_name = class_name;
  request.object_name = name;
  request.method = method;
  request.args = std::move(args);
  request.class_source = self();
  auto reply = proto::InvokeReply::decode(
      transport_.call_sync(target, proto_verbs::kExec, request.encode()));
  if (reply.status != proto::Status::Ok) {
    throw common::RemoteInvocationError("condensed exec of '" + name +
                                        "' failed: " + reply.error);
  }
  if (!directory_.contains(name)) {
    directory_.announce(ComponentInfo{name, class_name, self(), false});
  }
  local_server_.registry().update_forward(name, target);
  return std::move(reply.result);
}

// --- resource discovery ---------------------------------------------------------------------

std::vector<DiscoveredHost> MageClient::discover(
    const std::string& kind,
    const std::vector<common::NodeId>& candidates) {
  std::vector<DiscoveredHost> hosts;
  proto::DiscoverRequest request{kind};
  for (auto candidate : candidates) {
    if (candidate == self()) {
      const auto& board = local_server_.resource_board();
      if (board.offers(kind)) {
        hosts.push_back(DiscoveredHost{candidate, board.capacity(kind)});
      }
      continue;
    }
    try {
      auto reply = proto::DiscoverReply::decode(transport_.call_sync(
          candidate, proto::verbs::kDiscover, request.encode()));
      if (reply.offers) {
        hosts.push_back(DiscoveredHost{candidate, reply.capacity});
      }
    } catch (const common::MageError&) {
      // Unreachable or unwilling: discovery skips it, per the paper's
      // requirement to "robustly cope with changing network conditions".
    }
  }
  return hosts;
}

common::NodeId MageClient::discover_best(
    const std::string& kind,
    const std::vector<common::NodeId>& candidates) {
  common::NodeId best = common::kNoNode;
  double best_capacity = -1.0;
  for (const auto& host : discover(kind, candidates)) {
    if (host.capacity > best_capacity) {
      best = host.node;
      best_capacity = host.capacity;
    }
  }
  return best;
}

// --- class statics ----------------------------------------------------------------------

serial::Buffer MageClient::static_get_raw(const std::string& class_name,
                                          const std::string& key) {
  const auto home = world_.descriptor(class_name).statics_home;
  if (common::is_no_node(home)) {
    throw common::MageError("class '" + class_name +
                            "' has no statics home declared");
  }
  proto::StaticGetRequest request{class_name, key};
  auto reply = proto::InvokeReply::decode(transport_.call_sync(
      home, proto_verbs::kStaticGet, request.encode()));
  if (reply.status != proto::Status::Ok) {
    throw common::NotFoundError(class_name + "::" + key, reply.error);
  }
  return std::move(reply.result);
}

void MageClient::static_put_raw(const std::string& class_name,
                                const std::string& key,
                                serial::Buffer value) {
  const auto home = world_.descriptor(class_name).statics_home;
  if (common::is_no_node(home)) {
    throw common::MageError("class '" + class_name +
                            "' has no statics home declared");
  }
  proto::StaticPutRequest request;
  request.class_name = class_name;
  request.key = key;
  request.value = std::move(value);
  auto reply = proto::SimpleReply::decode(transport_.call_sync(
      home, proto_verbs::kStaticPut, request.encode()));
  if (reply.status != proto::Status::Ok) {
    throw common::MageError("static_put failed: " + reply.error);
  }
}

// --- locking ------------------------------------------------------------------------

LockHandle MageClient::lock(const common::ComponentName& name,
                            common::NodeId target) {
  AsyncClient::Chase op;
  op.kind = AsyncClient::ChaseKind::Lock;
  op.name = name;
  op.start = find(name);
  op.target = target;
  op.activity = activity_.value();
  const auto granted =
      get<common::LockError>(async_.chase(std::move(op)), proto_verbs::kLock,
                             "lock('" + name + "') failed: ");
  return LockHandle{name, granted.host, granted.lock_id, granted.lock_kind};
}

void MageClient::unlock(const LockHandle& handle) {
  proto::UnlockRequest request;
  request.name = handle.name;
  request.lock_id = handle.lock_id;
  auto reply = proto::SimpleReply::decode(transport_.call_sync(
      handle.host, proto_verbs::kUnlock, request.encode()));
  if (reply.status != proto::Status::Ok) {
    throw common::LockError("unlock('" + handle.name + "') failed: " +
                            reply.error);
  }
}

void MageClient::lock_async(common::NodeId host,
                            const common::ComponentName& name,
                            common::NodeId target,
                            common::UniqueFunction<void(proto::LockReply)>
                                on_reply) {
  proto::LockRequest request;
  request.name = name;
  request.target = target;
  request.activity = activity_.value();
  rmi::CallOptions options;
  options.max_attempts = 64;
  transport_.call(
      host, proto_verbs::kLock, request.encode(),
      [on_reply = std::move(on_reply)](rmi::CallResult result) mutable {
        if (!result.ok) {
          proto::LockReply reply;
          reply.status = proto::Status::Error;
          reply.error = result.error;
          on_reply(reply);
          return;
        }
        on_reply(proto::LockReply::decode(result.body));
      },
      options);
}

void MageClient::unlock_async(common::NodeId host,
                              const common::ComponentName& name,
                              std::uint64_t lock_id,
                              common::UniqueFunction<void()> on_reply) {
  proto::UnlockRequest request;
  request.name = name;
  request.lock_id = lock_id;
  transport_.call(host, proto_verbs::kUnlock, request.encode(),
                  [on_reply = std::move(on_reply)](rmi::CallResult) mutable {
                    on_reply();
                  });
}

// --- misc ------------------------------------------------------------------------------

double MageClient::load_of(common::NodeId node) {
  if (node == self()) return transport_.network().load(node);
  auto reply = proto::LoadReply::decode(
      transport_.call_sync(node, proto_verbs::kGetLoad, {}));
  return reply.load;
}

void MageClient::ping(common::NodeId node) {
  (void)transport_.call_sync(node, proto_verbs::kPing, {});
}

}  // namespace mage::rts
