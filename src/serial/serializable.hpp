// Interface for migratable object state.
//
// MAGE uses *weak* migration (Section 3.5): only heap state moves, never an
// execution stack.  A mobile object therefore only has to know how to write
// its fields to a Writer and restore them from a Reader.  The class_name()
// ties the state blob to a class registered in the rts::ClassWorld,
// reproducing Java's requirement that the class file be present before an
// object can be deserialized — which is exactly what forces MAGE to ship
// classes.
#pragma once

#include <string>

#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace mage::serial {

class Serializable {
 public:
  virtual ~Serializable() = default;

  // The ClassWorld name of this object's class (unique per concrete type).
  [[nodiscard]] virtual std::string class_name() const = 0;

  // Writes the object's heap state.
  virtual void serialize(Writer& w) const = 0;

  // Restores the object's heap state; the object was default-constructed by
  // its class's factory just before this call.
  virtual void deserialize(Reader& r) = 0;
};

}  // namespace mage::serial
