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
  return descriptor(class_name).make();
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
