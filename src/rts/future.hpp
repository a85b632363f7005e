// MageFuture / MagePromise: the chainable completion type the AsyncClient
// facade returns.
//
// Design constraints (docs/ARCHITECTURE.md "Completion-delivery
// determinism"):
//
//   * sim-deterministic — completion runs INLINE on the shard that
//     completes the promise, which for AsyncClient is always the calling
//     node's own shard (transport callbacks and call-policy timers both live
//     there).  There is no executor, no thread hop, no completion queue:
//     a future chain is just a deterministic sequence of calls inside one
//     simulation event.
//   * allocation-conscious — one shared state per future; continuations
//     are move-only common::UniqueFunction (inline SBO, no std::function
//     boxing); .then() adds exactly one state for its derived future.
//   * single-completion — completing a promise twice throws MageError;
//     attaching a continuation after completion runs it immediately (same
//     shard, still deterministic).
//
// Errors are strings (the wire's error currency).  They propagate through
// .then() chains without invoking the mapped functions; .on_error()
// observes them.  `Unit` stands in for void results so combinators stay
// regular.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/function.hpp"

namespace mage::rts {

struct Unit {};

template <typename R>
class MageFuture;
template <typename R>
class MagePromise;

namespace detail {

template <typename R>
struct FutureState {
  std::optional<R> value;
  std::string error;
  bool failed = false;
  std::vector<common::UniqueFunction<void(FutureState&)>> continuations;

  [[nodiscard]] bool completed() const { return value.has_value() || failed; }

  void set_value(R v) {
    if (completed()) {
      throw common::MageError("MagePromise completed twice");
    }
    value.emplace(std::move(v));
    settle();
  }

  void set_error(std::string e) {
    if (completed()) {
      throw common::MageError("MagePromise completed twice");
    }
    failed = true;
    error = std::move(e);
    settle();
  }

  void attach(common::UniqueFunction<void(FutureState&)> continuation) {
    if (completed()) {
      continuation(*this);  // late attach: run inline, same shard
      return;
    }
    continuations.push_back(std::move(continuation));
  }

 private:
  void settle() {
    // A continuation may attach further continuations (a .then() inside a
    // .then()); drain in waves so they all run, in attachment order.
    while (!continuations.empty()) {
      auto wave = std::move(continuations);
      continuations.clear();
      for (auto& continuation : wave) continuation(*this);
    }
  }
};

template <typename T>
struct IsFuture : std::false_type {};
template <typename T>
struct IsFuture<MageFuture<T>> : std::true_type {};

}  // namespace detail

template <typename R>
class MagePromise {
 public:
  MagePromise() : state_(std::make_shared<detail::FutureState<R>>()) {}

  [[nodiscard]] MageFuture<R> future() const;  // defined after MageFuture

  void set_value(R value) const { state_->set_value(std::move(value)); }
  void set_error(std::string error) const {
    state_->set_error(std::move(error));
  }
  [[nodiscard]] bool completed() const { return state_->completed(); }

 private:
  std::shared_ptr<detail::FutureState<R>> state_;
};

template <typename R>
class MageFuture {
 public:
  using Value = R;

  MageFuture() : state_(std::make_shared<detail::FutureState<R>>()) {}
  explicit MageFuture(std::shared_ptr<detail::FutureState<R>> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool completed() const { return state_->completed(); }
  [[nodiscard]] bool has_value() const { return state_->value.has_value(); }
  [[nodiscard]] bool has_error() const { return state_->failed; }
  // Valid only when has_value()/has_error(); driver-side inspection.
  [[nodiscard]] R& value() const { return *state_->value; }
  [[nodiscard]] const std::string& error() const { return state_->error; }

  // Chain a transformation.  `fn` may return a plain value U (->
  // MageFuture<U>), void (-> MageFuture<Unit>), or a MageFuture<U>
  // (unwrapped: the chain waits for it).  Upstream errors skip `fn` and
  // propagate.
  template <typename F>
  auto then(F&& fn) const {
    using Ret = std::invoke_result_t<std::decay_t<F>&, R&>;
    if constexpr (std::is_void_v<Ret>) {
      MagePromise<Unit> next;
      state_->attach([fn = std::forward<F>(fn),
                      next](detail::FutureState<R>& st) mutable {
        if (st.failed) {
          next.set_error(st.error);
          return;
        }
        fn(*st.value);
        next.set_value(Unit{});
      });
      return next.future();
    } else if constexpr (detail::IsFuture<Ret>::value) {
      using U = typename Ret::Value;
      MagePromise<U> next;
      state_->attach([fn = std::forward<F>(fn),
                      next](detail::FutureState<R>& st) mutable {
        if (st.failed) {
          next.set_error(st.error);
          return;
        }
        fn(*st.value).then([next](U& u) mutable {
          next.set_value(std::move(u));
        }).on_error([next](const std::string& e) mutable {
          next.set_error(e);
        });
      });
      return next.future();
    } else {
      MagePromise<Ret> next;
      state_->attach([fn = std::forward<F>(fn),
                      next](detail::FutureState<R>& st) mutable {
        if (st.failed) {
          next.set_error(st.error);
          return;
        }
        next.set_value(fn(*st.value));
      });
      return next.future();
    }
  }

  // Observe a failure (fn(const std::string&)).  Returns the same future
  // so success chains can continue past it.
  template <typename F>
  MageFuture<R> on_error(F&& fn) const {
    state_->attach(
        [fn = std::forward<F>(fn)](detail::FutureState<R>& st) mutable {
          if (st.failed) fn(st.error);
        });
    return *this;
  }

 private:
  template <typename T>
  friend class MagePromise;
  template <typename T>
  friend MageFuture<std::vector<T>> when_all(
      const std::vector<MageFuture<T>>& futures);
  template <typename T>
  friend MageFuture<std::pair<std::size_t, T>> when_any(
      const std::vector<MageFuture<T>>& futures);

  std::shared_ptr<detail::FutureState<R>> state_;
};

template <typename R>
MageFuture<R> MagePromise<R>::future() const {
  return MageFuture<R>(state_);
}

// All-of: completes with every result (input order) once the last input
// succeeds; fails fast with the FIRST error (later results are ignored).
template <typename R>
MageFuture<std::vector<R>> when_all(const std::vector<MageFuture<R>>& futures) {
  struct Join {
    MagePromise<std::vector<R>> promise;
    std::vector<std::optional<R>> slots;
    std::size_t remaining = 0;
    bool done = false;
  };
  auto join = std::make_shared<Join>();
  join->slots.resize(futures.size());
  join->remaining = futures.size();
  if (futures.empty()) {
    join->promise.set_value({});
    return join->promise.future();
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    futures[i].state_->attach(
        [join, i](detail::FutureState<R>& st) {
          if (join->done) return;
          if (st.failed) {
            join->done = true;
            join->promise.set_error(st.error);
            return;
          }
          join->slots[i].emplace(*st.value);
          if (--join->remaining > 0) return;
          join->done = true;
          std::vector<R> values;
          values.reserve(join->slots.size());
          for (auto& slot : join->slots) values.push_back(std::move(*slot));
          join->promise.set_value(std::move(values));
        });
  }
  return join->promise.future();
}

// Any-of: completes with (index, result) of the FIRST success; fails only
// when every input failed (with the last error).
template <typename R>
MageFuture<std::pair<std::size_t, R>> when_any(
    const std::vector<MageFuture<R>>& futures) {
  struct Race {
    MagePromise<std::pair<std::size_t, R>> promise;
    std::size_t remaining = 0;
    bool done = false;
  };
  auto race = std::make_shared<Race>();
  race->remaining = futures.size();
  if (futures.empty()) {
    race->promise.set_error("when_any on zero futures");
    return race->promise.future();
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    futures[i].state_->attach(
        [race, i](detail::FutureState<R>& st) {
          if (race->done) return;
          if (!st.failed) {
            race->done = true;
            race->promise.set_value({i, *st.value});
            return;
          }
          if (--race->remaining == 0) {
            race->done = true;
            race->promise.set_error(st.error);
          }
        });
  }
  return race->promise.future();
}

}  // namespace mage::rts
