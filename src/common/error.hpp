// MAGE error hierarchy.
//
// MAGE surfaces failures as exceptions, mirroring the paper's Java
// implementation ("MAGE RPC throws an exception if it does not find its
// object on its target", Section 4.2).  Every error derives from MageError
// so applications can catch the whole family; specific subclasses let
// mobility attributes and tests distinguish coercion failures from transport
// or registry problems.
#pragma once

#include <stdexcept>
#include <string>

#include "common/ids.hpp"

namespace mage::common {

// Root of the MAGE exception hierarchy.
class MageError : public std::runtime_error {
 public:
  explicit MageError(const std::string& what) : std::runtime_error(what) {}
};

// A component name could not be resolved by the MAGE registry (no binding
// anywhere in the federation, or the forwarding chain was broken).
class NotFoundError : public MageError {
 public:
  NotFoundError(const ComponentName& name, const std::string& detail);
  [[nodiscard]] const ComponentName& name() const { return name_; }

 private:
  ComponentName name_;
};

// A mobility attribute was applied in a configuration its programming model
// forbids and mobility coercion (Section 3.4, Table 2) maps to an error.
// The canonical case: RPC bound to an object that is not at its target.
class CoercionError : public MageError {
 public:
  CoercionError(const ComponentName& name, const std::string& detail);
  [[nodiscard]] const ComponentName& name() const { return name_; }

 private:
  ComponentName name_;
};

// A remote invocation failed at the callee (unknown method, unknown class,
// or the target method itself threw).  The remote what() string is carried
// back to the caller, as RMI does with RemoteException.
class RemoteInvocationError : public MageError {
 public:
  explicit RemoteInvocationError(const std::string& what) : MageError(what) {}
};

// The transport gave up on a request after exhausting retransmissions.
class TransportError : public MageError {
 public:
  explicit TransportError(const std::string& what) : MageError(what) {}
};

// Serialization framing or class-world problems (an unknown class name on
// deserialization models Java's ClassNotFoundException and is what forces
// MAGE to ship class images before object state).
class SerializationError : public MageError {
 public:
  explicit SerializationError(const std::string& what) : MageError(what) {}
};

// Lock protocol violations: unlocking an object the activity does not hold,
// or a lock request timing out.
class LockError : public MageError {
 public:
  explicit LockError(const std::string& what) : MageError(what) {}
};

// A namespace's access-control policy rejected the operation (the
// Section 7 access-control model).  Raised from remote error replies whose
// message carries the "access denied" marker.
class AccessDeniedError : public MageError {
 public:
  explicit AccessDeniedError(const std::string& what) : MageError(what) {}
};

// A namespace's resource-allocation model rejected an admission (object
// count or transfer size over budget).
class CapacityError : public MageError {
 public:
  explicit CapacityError(const std::string& what) : MageError(what) {}
};

}  // namespace mage::common
