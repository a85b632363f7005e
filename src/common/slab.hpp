// Stable slots for values that wait on an event: a message between
// Network::send and its handler, an envelope waiting out a simulated CPU
// cost.  The event captures the slot number.  Slots grow in chunks that
// never move, so a reference to one stays valid while others are added (a
// handler may send while it reads its own message in place); freed slots
// are reused last in, first out, so a steady state allocates nothing.  One
// owner (a shard) touches a slab; values still held when it dies are
// destroyed with it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace mage::common {

template <typename T>
class Slab {
 public:
  template <typename... Args>
  std::uint32_t emplace(Args&&... args) {
    std::uint32_t slot = size_;
    if (free_.empty()) {
      if (size_ == chunks_.size() * kChunk) {
        chunks_.push_back(std::make_unique<std::optional<T>[]>(kChunk));
      }
      ++size_;
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    cell(slot).emplace(std::forward<Args>(args)...);
    return slot;
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return *cell(slot); }

  // Destroys the slot's value and frees the slot.
  void release(std::uint32_t slot) {
    cell(slot).reset();
    free_.push_back(slot);
  }

  // Slots holding a value.
  [[nodiscard]] std::size_t live() const { return size_ - free_.size(); }

 private:
  static constexpr std::uint32_t kChunk = 16;

  std::optional<T>& cell(std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  std::vector<std::unique_ptr<std::optional<T>[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;  // slots ever handed out
};

}  // namespace mage::common
