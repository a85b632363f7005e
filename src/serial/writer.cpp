#include "serial/writer.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace mage::serial {
namespace {

constexpr std::size_t kMinCapacity = 64;

void check_block_size(std::size_t size) {
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw common::SerializationError(
        "block of " + std::to_string(size) +
        " bytes exceeds the u32 length prefix");
  }
}

}  // namespace

void Writer::grow_to(std::size_t min_capacity) {
  std::size_t capacity = capacity_ < kMinCapacity ? kMinCapacity : capacity_;
  while (capacity < min_capacity) capacity *= 2;
  auto grown = std::make_shared_for_overwrite<std::uint8_t[]>(capacity);
  if (size_ > 0) std::memcpy(grown.get(), data_, size_);
  block_ = std::move(grown);
  data_ = block_.get();
  capacity_ = capacity;
}

std::uint8_t* Writer::make_room(std::size_t extra) {
  if (size_ + extra > capacity_) grow_to(size_ + extra);
  return data_ + size_;
}

void Writer::steal(Writer& other) noexcept {
  block_ = std::move(other.block_);
  size_ = other.size_;
  capacity_ = other.capacity_;
  if (block_ != nullptr) {
    data_ = block_.get();
  } else {
    std::memcpy(small_, other.small_, size_);
    data_ = small_;
  }
  other.data_ = other.small_;
  other.size_ = 0;
  other.capacity_ = Buffer::kInlineCapacity;
}

template <typename T>
static void store_le(std::uint8_t* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) out[i] = raw[sizeof(T) - 1 - i];
  } else {
    std::memcpy(out, &v, sizeof(T));
  }
}

void Writer::write_u8(std::uint8_t v) {
  *make_room(1) = v;
  ++size_;
}

void Writer::write_u32(std::uint32_t v) {
  store_le(make_room(4), v);
  size_ += 4;
}

void Writer::write_u64(std::uint64_t v) {
  store_le(make_room(8), v);
  size_ += 8;
}

void Writer::write_i32(std::int32_t v) {
  write_u32(static_cast<std::uint32_t>(v));
}

void Writer::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void Writer::write_bool(bool v) { write_u8(v ? 1 : 0); }

void Writer::write_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void Writer::write_string(std::string_view v) {
  check_block_size(v.size());
  write_u32(static_cast<std::uint32_t>(v.size()));
  write_raw(v.data(), v.size());
}

void Writer::write_bytes(std::span<const std::uint8_t> v) {
  check_block_size(v.size());
  write_u32(static_cast<std::uint32_t>(v.size()));
  write_raw(v.data(), v.size());
}

void Writer::write_raw(const void* data, std::size_t size) {
  if (size == 0) return;
  std::memcpy(make_room(size), data, size);
  size_ += size;
}

void Writer::write_fill(std::uint8_t value, std::size_t count) {
  if (count == 0) return;
  std::memset(make_room(count), value, count);
  size_ += count;
}

Buffer Writer::take() {
  Buffer out = size_ <= Buffer::kInlineCapacity
                   ? Buffer::inline_copy(data_, size_)
                   : Buffer::adopt_shared(std::move(block_), size_);
  block_ = nullptr;
  data_ = small_;
  size_ = 0;
  capacity_ = Buffer::kInlineCapacity;
  return out;
}

}  // namespace mage::serial
