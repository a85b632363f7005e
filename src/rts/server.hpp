// MageServer: one namespace's runtime services.
//
// The paper (Section 4.1) splits the per-JVM runtime into MageServer (the
// "home" interface talking to local mobility attributes) and
// MageExternalServer (the "remote" interface that sends/receives objects
// and classes and forwards registry requests).  Both roles are message
// services on the same node, so this class implements them together; the
// verbs map onto the split as:
//
//   MageServer role:          lookup (local consult path), lock, unlock,
//                             invoke, get_load
//   MageExternalServer role:  class_check, fetch_class, load_class,
//                             instantiate, move, transfer, forwarded lookup
//
// All handlers are continuation-style: a handler may hold its Replier and
// answer after a sub-protocol (forwarding-chain hop, class fetch, object
// transfer) completes.  Nothing here ever blocks the event loop.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "rts/access.hpp"
#include "rts/class_cache.hpp"
#include "rts/discovery.hpp"
#include "rts/class_world.hpp"
#include "rts/directory.hpp"
#include "rts/lock_manager.hpp"
#include "rts/protocol.hpp"
#include "rts/registry.hpp"

namespace mage::rts {

class MageServer {
 public:
  MageServer(rmi::Transport& transport, const ClassWorld& world,
             const Directory& directory);

  MageServer(const MageServer&) = delete;
  MageServer& operator=(const MageServer&) = delete;

  [[nodiscard]] common::NodeId self() const { return transport_.self(); }
  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }
  [[nodiscard]] ClassCache& class_cache() { return class_cache_; }
  [[nodiscard]] LockManager& locks() { return locks_; }
  [[nodiscard]] rmi::Transport& transport() { return transport_; }

  // Marks the engine pre-warmed (benches use this to separate the cold
  // "single invocation" run from the amortized runs, and zero-cost logic
  // tests warm everything up front).
  void set_warmed(bool warmed) { warmed_ = warmed; }
  [[nodiscard]] bool warmed() const { return warmed_; }

  // True while `name`'s object is mid-transfer away from this node.
  [[nodiscard]] bool in_transit(const common::ComponentName& name) const {
    return registry_.in_transit(name);
  }

  // True when `name`'s object is bound here and not leaving: the one test
  // of "here" that every located verb applies (Registry::Record::hosted).
  [[nodiscard]] bool hosts(const common::ComponentName& name) const {
    const Registry::Record* record = registry_.find(name);
    return record != nullptr && record->hosted();
  }

  // How a migrate() ended.  An empty `error` means the object now lives at
  // the destination, bound at `epoch`.  Otherwise `rejected` tells the
  // destination's refusal from a failed transfer call, whose error keeps
  // its family prefix (rmi::error_kind).
  struct Migration {
    std::string error;
    bool rejected = false;
    std::uint64_t epoch = 0;
  };

  // Weak migration (Figure 7's object send and ack), the one routine that
  // moves an object off this node, for a remote mover and for this node's
  // own client alike.  Serializes the object, mints the next placement
  // epoch, marks it in transit (Section 4.4: movement is not atomic, so
  // concurrent verbs are redirected meanwhile) and sends one
  // mage.transfer.  On the ack it unbinds the local copy behind a forward
  // fenced at the new epoch and hands the lock queue over.  Requires
  // hosts(name) and `to` != self().  `done` fires exactly once.
  void migrate(const common::ComponentName& name, common::NodeId to,
               common::UniqueFunction<void(Migration)> done);

  [[nodiscard]] const ClassWorld& world() const { return world_; }
  [[nodiscard]] const Directory& directory() const { return directory_; }

  // Section 7 models: per-namespace access control and resource admission.
  [[nodiscard]] AccessController& access() { return access_; }
  [[nodiscard]] ResourceModel& resources() { return resources_; }

  // What this namespace advertises to resource discovery.
  [[nodiscard]] ResourceBoard& resource_board() { return resource_board_; }

  // Class statics hosted here (for classes whose statics home is this
  // node); exposed for tests and the federation snapshot.
  [[nodiscard]] const std::map<std::string,
                               std::map<std::string, serial::Buffer>>&
  statics() const {
    return statics_;
  }

 private:
  // The scatter-gather body a service receives from the transport.
  using Body = serial::BufferChain;
  // Continuation for ensure_class_then; move-only so it can carry a Replier.
  using EnsureClassFn = common::UniqueFunction<void(bool ok, std::string error)>;

  void register_services();
  // Wraps a handler so the first migration-family operation on this node
  // pays the one-time engine warm-up cost.
  void register_warmable(common::VerbId verb, rmi::Transport::Service fn);

  void handle_lookup(common::NodeId caller, const Body& body,
                     rmi::Replier replier);
  void handle_class_check(common::NodeId caller, const Body& body,
                          rmi::Replier replier);
  void handle_fetch_class(common::NodeId caller, const Body& body,
                          rmi::Replier replier);
  void handle_load_class(common::NodeId caller, const Body& body,
                         rmi::Replier replier);
  void handle_instantiate(common::NodeId caller, const Body& body,
                          rmi::Replier replier);
  void handle_move(common::NodeId caller, const Body& body,
                   rmi::Replier replier);
  void handle_transfer(common::NodeId caller, const Body& body,
                       rmi::Replier replier);
  void handle_invoke(common::NodeId caller, const Body& body,
                     rmi::Replier replier);
  void handle_invoke_oneway(common::NodeId caller, const Body& body,
                            rmi::Replier replier);
  void handle_fetch_result(common::NodeId caller, const Body& body,
                           rmi::Replier replier);
  void handle_lock(common::NodeId caller, const Body& body,
                   rmi::Replier replier);
  void handle_unlock(common::NodeId caller, const Body& body,
                     rmi::Replier replier);
  void handle_get_load(common::NodeId caller, const Body& body,
                       rmi::Replier replier);
  void handle_manifest(common::NodeId caller, const Body& body,
                       rmi::Replier replier);
  void handle_static_get(common::NodeId caller, const Body& body,
                         rmi::Replier replier);
  void handle_static_put(common::NodeId caller, const Body& body,
                         rmi::Replier replier);
  void handle_discover(common::NodeId caller, const Body& body,
                       rmi::Replier replier);
  void handle_exec(common::NodeId caller, const Body& body,
                   rmi::Replier replier);

  // Consults the access controller; on denial replies with the tagged
  // "access denied" error and returns false.
  bool check_access(Operation op, common::NodeId caller,
                    rmi::Replier& replier);

  // Ensures `class_name` is in the local cache, fetching the image from
  // `source` if needed, then runs `then`.
  void ensure_class_then(const std::string& class_name, common::NodeId source,
                         EnsureClassFn then);

  // An object coming to live here: `name` as a fresh `class_name` object,
  // or, when `state` is set, as the migrated object it serializes.
  struct Arrival {
    common::ComponentName name;
    std::string class_name;
    // Where a missing class is fetched from; kNoNode means the caller.
    common::NodeId class_source = common::kNoNode;
    std::optional<serial::Buffer> state = std::nullopt;
    std::uint64_t epoch = 0;  // 0 = Registry::bind's default
  };

  // The one arrival path (instantiate, exec, transfer): admits the object
  // (else the tagged "capacity exceeded" error), ensures its class, charges
  // instantiate_us, binds it, and hands the replier to `then`.  A class
  // that cannot be had answers a `Reply` with Status::Error instead.
  template <typename Reply, typename Then>
  void arrive(common::NodeId caller, Arrival arrival, rmi::Replier replier,
              Then then);

  // Executes a method on a locally bound object; returns an InvokeReply.
  // A missing object or method, or a body that throws, answers
  // Status::Error.  The second form runs `entry` when the caller resolved
  // it, else looks `method` up on the object's class.
  proto::InvokeReply run_method(const proto::InvokeRequest& request);
  proto::InvokeReply run_method(MageObject& object, const MethodEntry* entry,
                                const std::string& method,
                                const serial::Buffer& args);

  // Simulated CPU cost of `method` on the local object `name` (0 when
  // either is unknown: run_method then produces the error reply).
  [[nodiscard]] common::SimDuration method_cost(
      const common::ComponentName& name, const std::string& method) const;

  // Answers "where should the caller look next" for a non-local component
  // (`record` null: never heard of): Moved + hint when we know where it
  // went, NotFound otherwise.  `epoch` is the placement epoch backing the
  // hint, so callers can fence stale forwarding knowledge (an in-transit
  // hint is one epoch ahead of the local binding — the destination binds
  // at epoch + 1).
  struct Hint {
    proto::Status status = proto::Status::NotFound;
    common::NodeId node = common::kNoNode;
    std::uint64_t epoch = 0;
  };
  [[nodiscard]] static Hint locate_hint(const Registry::Record* record);

  // The one "not here" answer of the located verbs: true when `record`'s
  // object is hosted here; otherwise replies a `Reply` carrying
  // locate_hint() and `why`, and returns false.
  template <typename Reply>
  static bool here_or_hint(const Registry::Record* record,
                           rmi::Replier& replier,
                           const char* why = "object is not at this node");

  sim::Simulation& sim();
  [[nodiscard]] const net::CostModel& model() const {
    return transport_.network().cost_model();
  }

  rmi::Transport& transport_;
  const ClassWorld& world_;
  const Directory& directory_;
  Registry registry_;
  ClassCache class_cache_;
  LockManager locks_;
  bool warmed_ = false;
  AccessController access_;
  ResourceModel resources_;
  ResourceBoard resource_board_;
  // class -> key -> serialized value, for classes homed here.
  std::map<std::string, std::map<std::string, serial::Buffer>> statics_;
  std::int64_t* invocations_ = nullptr;  // "rts.invocations"
  std::int64_t* lookups_ = nullptr;      // "rts.lookups"
  std::int64_t* lookup_hops_ = nullptr;  // "rts.lookup_hops"
};

}  // namespace mage::rts
