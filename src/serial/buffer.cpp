#include "serial/buffer.hpp"

#include <atomic>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace mage::serial {
namespace {

// Atomic so sharded workers can account gathers concurrently; the hot path
// never copies, so the counters only cost on the slow path they police.
std::atomic<std::uint64_t> g_deep_copy_count{0};
std::atomic<std::uint64_t> g_deep_copy_bytes{0};

}  // namespace

std::uint32_t Buffer::checked_size(std::size_t size) {
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw common::SerializationError(
        "buffer of " + std::to_string(size) +
        " bytes exceeds the u32 size limit");
  }
  return static_cast<std::uint32_t>(size);
}

Buffer::Buffer(std::vector<std::uint8_t>&& bytes) : Buffer() {
  if (bytes.size() <= kInlineCapacity) {
    *this = inline_copy(bytes.data(), bytes.size());
    return;
  }
  const std::uint32_t size = checked_size(bytes.size());
  auto vec = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(bytes));
  const std::uint8_t* data = vec->data();
  *this = Buffer(Owner(std::move(vec), data), size);
}

Buffer::Buffer(std::initializer_list<std::uint8_t> bytes) : Buffer() {
  if (bytes.size() <= kInlineCapacity) {
    *this = inline_copy(bytes.begin(), bytes.size());
  } else {
    *this = Buffer(std::vector<std::uint8_t>(bytes));
  }
}

Buffer Buffer::adopt_shared(std::shared_ptr<const std::uint8_t[]> storage,
                            std::size_t size) {
  if (size <= kInlineCapacity) return inline_copy(storage.get(), size);
  return Buffer(std::move(storage), checked_size(size));
}

Buffer Buffer::copy(std::span<const std::uint8_t> bytes) {
  const std::uint32_t size = checked_size(bytes.size());
  note_deep_copy(size);
  if (size <= kInlineCapacity) return inline_copy(bytes.data(), size);
  auto storage = std::make_shared_for_overwrite<std::uint8_t[]>(size);
  std::memcpy(storage.get(), bytes.data(), size);
  return Buffer(std::move(storage), size);
}

void Buffer::note_deep_copy(std::size_t bytes) {
  g_deep_copy_count.fetch_add(1, std::memory_order_relaxed);
  g_deep_copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

Buffer Buffer::slice(std::size_t offset, std::size_t length) const {
  if (offset > size_ || length > size_ - offset) {
    throw common::SerializationError(
        "buffer slice [" + std::to_string(offset) + ", " +
        std::to_string(offset + length) + ") out of bounds (size " +
        std::to_string(size_) + ")");
  }
  if (!shared_) return inline_copy(inline_ + offset, length);
  return Buffer(Owner(owner_, owner_.get() + offset),
                static_cast<std::uint32_t>(length));
}

std::uint64_t Buffer::deep_copy_count() {
  return g_deep_copy_count.load(std::memory_order_relaxed);
}
std::uint64_t Buffer::deep_copy_bytes() {
  return g_deep_copy_bytes.load(std::memory_order_relaxed);
}

void Buffer::reset_copy_counters() {
  g_deep_copy_count.store(0, std::memory_order_relaxed);
  g_deep_copy_bytes.store(0, std::memory_order_relaxed);
}

}  // namespace mage::serial
