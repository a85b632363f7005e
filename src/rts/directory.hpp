// Static component directory.
//
// The paper concedes (Section 7): "MAGE has inherited RMI's reliance on
// static information shared between clients and servers.  Specifically,
// MAGE requires that mobile objects and their clients share the name of the
// mobile object's origin server, an interface to the mobile object and the
// mobile object's name as bound in the MAGE registry."
//
// The Directory is exactly that shared static knowledge: name -> (origin
// server, class, public/private).  It is deployment-time configuration, so
// consulting it costs nothing at runtime.  Everything *dynamic* — where the
// object currently lives — is tracked by the per-node registries and their
// forwarding chains, never here.
//
// The table is hashed and filled before the run; every shard reads it
// concurrently, so it keeps no lazily filled state.
#pragma once

#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "rts/component.hpp"

namespace mage::rts {

class Directory {
 public:
  void announce(const ComponentInfo& info) { entries_[info.name] = info; }

  [[nodiscard]] bool contains(const common::ComponentName& name) const {
    return entries_.contains(name);
  }

  // The entry of `name`, or nullptr: one probe where contains() + info()
  // take two.
  [[nodiscard]] const ComponentInfo* find(
      const common::ComponentName& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const ComponentInfo& info(
      const common::ComponentName& name) const {
    const ComponentInfo* entry = find(name);
    if (entry == nullptr) {
      throw common::NotFoundError(name, "no directory entry");
    }
    return *entry;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<common::ComponentName, ComponentInfo> entries_;
};

}  // namespace mage::rts
