#include "rts/class_world.hpp"

namespace mage::rts {

const ClassDescriptor& ClassWorld::descriptor(const std::string& name) const {
  auto it = descriptors_.find(name);
  if (it == descriptors_.end()) {
    throw common::SerializationError("class '" + name +
                                     "' is not registered in the world");
  }
  return it->second;
}

std::unique_ptr<MageObject> ClassWorld::instantiate(
    const std::string& class_name) const {
  auto object = types_.create(class_name);
  auto* mage_object = dynamic_cast<MageObject*>(object.get());
  if (mage_object == nullptr) {
    throw common::SerializationError("class '" + class_name +
                                     "' is not a MageObject");
  }
  object.release();
  return std::unique_ptr<MageObject>(mage_object);
}

std::unique_ptr<MageObject> ClassWorld::deserialize(
    const std::string& class_name, serial::Reader& r) const {
  auto object = instantiate(class_name);
  object->deserialize(r);
  return object;
}

const MethodEntry& ClassWorld::method(const std::string& class_name,
                                      const std::string& method_name) const {
  const auto& d = descriptor(class_name);
  auto it = d.methods.find(method_name);
  if (it == d.methods.end()) {
    throw common::RemoteInvocationError("class '" + class_name +
                                        "' has no method '" + method_name +
                                        "'");
  }
  return it->second;
}

const MethodEntry* ClassWorld::find_method(
    const std::string& class_name, const std::string& method_name) const {
  const auto d = descriptors_.find(class_name);
  if (d == descriptors_.end()) return nullptr;
  const auto it = d->second.methods.find(method_name);
  return it == d->second.methods.end() ? nullptr : &it->second;
}

}  // namespace mage::rts
