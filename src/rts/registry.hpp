// Per-namespace MAGE registry (Section 4.1).
//
// "The MAGE Registry wraps the RMI registry and tracks object locations.
// ...  For mobile objects, the registry maintains a list of all the objects
// that have ever been moved into a namespace in the registry's JVM and
// their last known location.  To find an object, the registry simply
// follows the chain of forwarding addresses until it reaches the MAGE
// server currently hosting the component.  As the result returns, each
// server updates its forwarding address, thus collapsing the path."
//
// This class is the *local* slice of that global namespace: objects bound
// here, plus forwarding addresses for objects that left.  The chain walk
// itself is a network protocol and lives in MageServer; path collapsing
// calls back into update_forward().
//
// Everything the namespace knows about one name is one Record in one
// hashed table, so a verb resolves its name with a single probe.  Records
// are never erased (the epoch outlives the binding and the forward), so a
// Record pointer stays valid for the registry's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "rts/component.hpp"
#include "serial/buffer.hpp"

namespace mage::rts {

class Registry {
 public:
  struct Record {
    std::unique_ptr<MageObject> object;      // bound here, or null
    std::optional<common::NodeId> forward;   // where the object went
    // Destination of a transfer in flight (MageServer::migrate): the
    // object is still bound here but already leaving.
    std::optional<common::NodeId> in_transit;
    // Highest placement epoch seen (local bind or fenced forward); 0 = no
    // epoch knowledge.
    std::uint64_t epoch = 0;
    // Bumped by every bind: tells a rebinding from the same object.
    std::uint32_t binding = 0;
    // Mobile-agent result parked for a later fetch (Section 3.5).
    std::optional<serial::Buffer> result;

    // Bound here and not leaving: the one test of "here" every located
    // verb applies.
    [[nodiscard]] bool hosted() const {
      return object != nullptr && !in_transit.has_value();
    }
  };

  explicit Registry(common::NodeId self) : self_(self) {}

  // The record of `name`, or nullptr when this namespace never heard of it.
  [[nodiscard]] Record* find(const common::ComponentName& name);
  [[nodiscard]] const Record* find(const common::ComponentName& name) const;

  // --- local bindings -----------------------------------------------------

  // Binds `object` under `name` in this namespace; clears any forwarding
  // entry (the object is back).  `epoch` is the placement epoch the object
  // arrives at (a migration destination binds at the source's epoch + 1);
  // 0 keeps the highest epoch this registry has seen, floored at 1 — a
  // first bind starts every object's history at epoch 1.
  void bind(const common::ComponentName& name,
            std::unique_ptr<MageObject> object, std::uint64_t epoch = 0);

  // Removes and returns the local object (it is about to migrate).
  [[nodiscard]] std::unique_ptr<MageObject> unbind(
      const common::ComponentName& name);

  [[nodiscard]] bool has_local(const common::ComponentName& name) const {
    const Record* record = find(name);
    return record != nullptr && record->object != nullptr;
  }

  // Borrow the live object; throws NotFoundError when not local.
  [[nodiscard]] MageObject& local(const common::ComponentName& name);

  // The names bound here, sorted.
  [[nodiscard]] std::vector<common::ComponentName> local_names() const;
  [[nodiscard]] std::size_t local_count() const { return bound_; }

  // --- forwarding chain -----------------------------------------------------

  // Records "the object left this namespace toward `to`" or collapses the
  // chain after a successful lookup.  The unfenced overload keeps the
  // current epoch knowledge; the fenced overload applies only when `epoch`
  // is at least what this registry already knows (and records it) —
  // returns false when the update was stale and ignored.  Epoch-fenced
  // forwards are what stop a stale chain from resurrecting a dead home:
  // knowledge can only move forward in placement history.
  void update_forward(const common::ComponentName& name, common::NodeId to);
  bool update_forward(const common::ComponentName& name, common::NodeId to,
                      std::uint64_t epoch);

  [[nodiscard]] std::optional<common::NodeId> forward(
      const common::ComponentName& name) const;

  // Highest placement epoch this registry has seen for `name` (local bind
  // or fenced forward); 0 = no epoch knowledge.
  [[nodiscard]] std::uint64_t epoch_of(const common::ComponentName& name) const;

  // --- transfers in flight --------------------------------------------------

  // Marks `name`'s object as leaving toward `to`, or no longer leaving.
  void set_in_transit(const common::ComponentName& name,
                      std::optional<common::NodeId> to);
  [[nodiscard]] bool in_transit(const common::ComponentName& name) const {
    const Record* record = find(name);
    return record != nullptr && record->in_transit.has_value();
  }

  // --- MA result store ------------------------------------------------------

  // Under the mobile-agent model the invocation result "stays at the remote
  // host"; it is parked here until fetched.
  void park_result(const common::ComponentName& name, serial::Buffer result);
  [[nodiscard]] std::optional<serial::Buffer> take_result(
      const common::ComponentName& name);

  [[nodiscard]] common::NodeId self() const { return self_; }

 private:
  common::NodeId self_;
  std::unordered_map<common::ComponentName, Record> records_;
  std::size_t bound_ = 0;  // records holding an object
};

}  // namespace mage::rts
