// Process-wide class table ("the world's code").
//
// MAGE ships *class images* between namespaces but, as the paper notes, it
// "implicitly defines mobile classes globally" by cloning class files.  We
// reproduce that split: the ClassWorld holds the executable artifacts — the
// factory and the method table — once per process (the analogue of every
// JVM being able to define the class once it has the bytes), while each
// node's ClassCache (class_cache.hpp) tracks which namespaces have
// *received* the image and may therefore instantiate or deserialize
// instances.
//
// Methods are registered through ClassBuilder with automatic marshalling:
//   ClassBuilder<Counter>(world, "Counter")
//       .method("increment", &Counter::increment)
//       .method("get", &Counter::get);
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "rts/component.hpp"
#include "serial/traits.hpp"

namespace mage::rts {

// Marshalled method: serialized args in, serialized result out.
using MethodFn =
    std::function<serial::Buffer(MageObject&, const serial::Buffer&)>;

struct MethodEntry {
  MethodFn fn;
  // Simulated CPU time the method body consumes (e.g. a geo-data filter
  // pass); charged by the hosting server before the result is produced.
  std::int64_t cost_us = 0;
};

struct ClassDescriptor {
  std::string name;
  // Simulated size of the class image on the wire (bytes).  A minimal
  // class file extending UnicastRemoteObject — the paper's test object —
  // is about 2 KB.
  std::uint32_t code_size = 2048;
  std::unordered_map<std::string, MethodEntry> methods;
  // Namespace holding the class's static fields (Section 4.2: "handling
  // classes with static fields would require extending MAGE to provide
  // coherency for class data" — we provide home-station coherency: every
  // static read/write is served at this node).  kNoNode = no statics.
  common::NodeId statics_home = common::kNoNode;
  // Makes a default-constructed instance, for instantiate or deserialize.
  std::unique_ptr<MageObject> (*make)() = nullptr;
};

class ClassWorld {
 public:
  // Registers class T under `name` (again: replaces its factory and code
  // size, keeps its methods).
  template <typename T>
  ClassDescriptor& register_class(const std::string& name,
                                  std::uint32_t code_size = 2048) {
    static_assert(std::is_base_of_v<MageObject, T>);
    auto& d = descriptors_[name];
    d.name = name;
    d.code_size = code_size;
    d.make = []() -> std::unique_ptr<MageObject> {
      return std::make_unique<T>();
    };
    return d;
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return descriptors_.contains(name);
  }

  // Declares which namespace serves `class_name`'s static fields.
  void set_statics_home(const std::string& class_name, common::NodeId home) {
    auto it = descriptors_.find(class_name);
    if (it == descriptors_.end()) {
      throw common::SerializationError("class '" + class_name +
                                       "' is not registered in the world");
    }
    it->second.statics_home = home;
  }

  [[nodiscard]] const ClassDescriptor& descriptor(
      const std::string& name) const;

  // Instantiates a default-constructed object of `class_name`; throws
  // SerializationError when the class is not registered.
  [[nodiscard]] std::unique_ptr<MageObject> instantiate(
      const std::string& class_name) const;

  // Instantiates and restores state.
  [[nodiscard]] std::unique_ptr<MageObject> deserialize(
      const std::string& class_name, serial::Reader& r) const;

  // Looks up a method; throws RemoteInvocationError when missing.
  [[nodiscard]] const MethodEntry& method(
      const std::string& class_name, const std::string& method_name) const;
  // The same lookup without the throw: nullptr when the class or the
  // method is unknown.
  [[nodiscard]] const MethodEntry* find_method(
      const std::string& class_name, const std::string& method_name) const;

 private:
  // Hashed, filled before the run and read by every shard: no lazily
  // filled state.
  std::unordered_map<std::string, ClassDescriptor> descriptors_;
};

namespace detail {

// Invokes a member function with arguments decoded from `args_bytes` and
// encodes the result (Unit for void).  `Fn` is a pointer to member
// function, const or not.
template <typename T, typename R, typename Fn, typename... Args>
MethodFn wrap_method_impl(Fn fn, std::tuple<Args...>*) {
  return [fn](MageObject& object, const serial::Buffer& args_bytes) {
    auto* typed = dynamic_cast<T*>(&object);
    if (typed == nullptr) {
      throw common::RemoteInvocationError(
          "object is not an instance of the method's class");
    }
    serial::Reader r(args_bytes);
    // Decode left-to-right into a tuple (function argument evaluation
    // order is unspecified; tuple construction with explicit sequencing
    // keeps the wire format deterministic).
    std::tuple<std::decay_t<Args>...> args{
        serial::get<std::decay_t<Args>>(r)...};
    serial::Writer w;
    if constexpr (std::is_void_v<R>) {
      std::apply([&](auto&&... a) { (typed->*fn)(a...); }, args);
      serial::put(w, serial::Unit{});
    } else {
      R result = std::apply([&](auto&&... a) { return (typed->*fn)(a...); },
                            args);
      serial::put(w, result);
    }
    return w.take();
  };
}

template <typename T, typename R, typename... Args>
MethodFn wrap_method(R (T::*fn)(Args...)) {
  return wrap_method_impl<T, R>(fn,
                                static_cast<std::tuple<Args...>*>(nullptr));
}

template <typename T, typename R, typename... Args>
MethodFn wrap_method(R (T::*fn)(Args...) const) {
  return wrap_method_impl<T, R>(fn,
                                static_cast<std::tuple<Args...>*>(nullptr));
}

}  // namespace detail

// Fluent registration of a class and its remotely invocable methods.
template <typename T>
class ClassBuilder {
 public:
  ClassBuilder(ClassWorld& world, const std::string& name,
               std::uint32_t code_size = 2048)
      : descriptor_(world.register_class<T>(name, code_size)) {}

  template <typename R, typename... Args>
  ClassBuilder& method(const std::string& method_name, R (T::*fn)(Args...),
                       std::int64_t cost_us = 0) {
    descriptor_.methods[method_name] =
        MethodEntry{detail::wrap_method(fn), cost_us};
    return *this;
  }

  template <typename R, typename... Args>
  ClassBuilder& method(const std::string& method_name,
                       R (T::*fn)(Args...) const, std::int64_t cost_us = 0) {
    descriptor_.methods[method_name] =
        MethodEntry{detail::wrap_method(fn), cost_us};
    return *this;
  }

 private:
  ClassDescriptor& descriptor_;
};

}  // namespace mage::rts
