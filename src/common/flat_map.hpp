// Open-addressed hash table keyed by non-zero u64 — the allocation-free
// replacement for the transport's std::unordered_map state.
//
// unordered_map allocates one heap node per insert, which put two
// allocations on every RMI receive (pending-call bookkeeping plus the
// at-most-once reply cache).  This table stores slots inline in one vector:
// linear probing over a power-of-two capacity, key 0 reserved as the empty
// sentinel (request ids start at 1 and packed (node, request) keys carry a
// non-zero node in the high bits, so 0 never occurs), and backward-shift
// deletion instead of tombstones so lookups never degrade.  Steady-state
// insert/erase touches no allocator; the vector reallocates only on growth
// (a table whose live size stops growing stops allocating, as the reply
// cache's index does once its ring has wrapped), and reserve() sizes a
// table for a known number of live entries up front.
//
// Values are trivially copyable (checked): a backward shift or a rehash
// copies plain slots, and a table of large or resource-holding records
// keeps them elsewhere (a common::Slab) and maps to their slot numbers.
//
// find()/try_emplace() return raw value pointers that are invalidated by
// any subsequent insert (rehash) or erase (backward shift) — use, then
// re-look-up, exactly like the transport does.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace mage::common {

template <typename V>
class FlatMap64 {
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatMap64 values move by plain copy");

 public:
  // One probe slot; its size is what a probe or a shift touches.
  struct Slot {
    std::uint64_t key = 0;  // 0 = empty
    V value{};
  };

  explicit FlatMap64(std::size_t min_slots = 16) {
    slots_.resize(pow2_at_least(min_slots));
    mask_ = slots_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Ensures `n` entries fit without growth (load factor ≤ 3/4).
  void reserve(std::size_t n) {
    const std::size_t want = pow2_at_least(n + n / 3 + 1);
    if (want > slots_.size()) rehash(want);
  }

  V* find(std::uint64_t key) {
    assert(key != 0);
    for (std::size_t i = index(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == 0) return nullptr;
    }
  }

  // Default-constructs the value on first insert; returns (value, inserted).
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    assert(key != 0);
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    for (std::size_t i = index(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == 0) {
        s.key = key;
        ++size_;
        return {&s.value, true};
      }
    }
  }

  bool erase(std::uint64_t key) {
    assert(key != 0);
    std::size_t hole = index(key);
    while (true) {
      if (slots_[hole].key == key) break;
      if (slots_[hole].key == 0) return false;
      hole = next(hole);
    }
    // Backward-shift deletion: pull displaced entries over the hole so a
    // probe chain never crosses an empty slot it used to pass through.
    for (std::size_t i = next(hole); slots_[i].key != 0; i = next(i)) {
      const std::size_t home = index(slots_[i].key);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};  // try_emplace hands out an empty slot's value
    --size_;
    return true;
  }

 private:
  static std::size_t pow2_at_least(std::size_t n) {
    std::size_t p = 16;
    while (p < n) p *= 2;
    return p;
  }

  // splitmix64 finalizer: packed keys differ only in a few bits; the mix
  // spreads them across the table.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  [[nodiscard]] std::size_t index(std::uint64_t key) const {
    return mix(key) & mask_;
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & mask_;
  }

  void rehash(std::size_t new_slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(new_slot_count);
    mask_ = new_slot_count - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != 0) *try_emplace(s.key).first = s.value;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mage::common
