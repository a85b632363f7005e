// Move-only type-erased callable with small-buffer optimisation.
//
// The event queue stores one of these per scheduled event.  Two properties
// matter there: (1) move-only, so actions can capture move-only state
// (serial::Buffer, rmi::Replier); (2) inline storage, so a steady-state
// event allocates nothing.  Callables larger than the inline buffer fall
// back to a single heap allocation, exactly like std::function.
//
// The inline size depends on the signature.  An event action (void()) holds
// the largest steady-state event capture on the bench/e2e workloads,
// MageServer::handle_invoke's (128 bytes): messages and parked envelopes
// wait in slots (common::Slab), so their events capture a slot number.  A
// completion callback keeps room for a BufferChain body and a Replier.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace mage::common {

template <typename Sig>
inline constexpr std::size_t kInlineCapacity = 232;
template <>
inline constexpr std::size_t kInlineCapacity<void()> = 128;

template <typename Sig>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  // Captures up to this many bytes live inline (no heap allocation).
  static constexpr std::size_t kInlineSize = kInlineCapacity<R(Args...)>;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, UniqueFunction> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    // Inline storage requires a nothrow move: relocation happens inside
    // noexcept moves and slab growth, where a throwing move (e.g. a const
    // by-value capture whose "move" is an allocating copy) would terminate.
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    // Relocate the callable from src storage into (raw) dst storage,
    // destroying src.  Needed because slab nodes move when the pool grows.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* p, Args&&... args) -> R {
        return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](void* p, Args&&... args) -> R {
        return (**static_cast<Fn**>(p))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      [](void* p) { delete *static_cast<Fn**>(p); },
  };

  void move_from(UniqueFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace mage::common
