// Byte-oriented serialization writer.
//
// MAGE must marshal three kinds of payloads: invocation arguments/results
// (the paper's "traditional data marshalling mechanisms"), migrating object
// state (weak migration: heap state only, Section 3.5), and class images.
// The encoding is explicit little-endian with length-prefixed strings —
// deliberately simple and self-contained, since building the wire format by
// hand is part of the reproduction (repro note: "manual serialization").
//
// The writer builds in the same two storages a Buffer has.  Up to
// Buffer::kInlineCapacity bytes it writes into storage inside the writer,
// and take() copies them into the handle: a small message (an envelope
// header, an echo body) costs no allocation.  Past that it builds directly
// into the shared array block that becomes the Buffer: take() moves the
// block out with no copy and no extra control block, so a large message
// whose size fits the initial reservation costs exactly ONE allocation end
// to end (make_shared<uint8_t[]> fuses bytes and control block).  Growth
// re-allocates and memcpys — an internal resize, not a counted payload
// deep-copy; pre-reserve on known-size payloads to avoid it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "serial/buffer.hpp"

namespace mage::serial {

class Writer {
 public:
  Writer() = default;
  // Pre-reserves capacity so a known-size payload builds with at most one
  // allocation (none up to Buffer::kInlineCapacity).
  explicit Writer(std::size_t reserve_bytes) { reserve(reserve_bytes); }

  // The write cursor may point into the writer itself, so a move re-aims
  // it (a moved-from writer is empty) and a copy writes its own bytes.
  Writer(Writer&& other) noexcept { steal(other); }
  Writer& operator=(Writer&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }
  Writer(const Writer& other) : Writer(other.size_) {
    write_raw(other.data_, other.size_);
  }
  Writer& operator=(const Writer& other) {
    if (this != &other) *this = Writer(other);
    return *this;
  }

  void reserve(std::size_t bytes) {
    if (bytes > capacity_) grow_to(bytes);
  }

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_i64(std::int64_t v);
  void write_bool(bool v);
  void write_f64(double v);
  // Length-prefixed (u32) byte string.  Throws SerializationError when
  // v.size() exceeds UINT32_MAX (a silent wrong length prefix would corrupt
  // the stream).
  void write_string(std::string_view v);
  // Length-prefixed (u32) byte block, mirror of Reader::read_bytes.
  void write_bytes(std::span<const std::uint8_t> v);
  // Raw bytes, caller is responsible for knowing the length on read.
  void write_raw(const void* data, std::size_t size);
  // `count` copies of `value` (simulated class-image filler et al.) without
  // materialising a temporary vector.
  void write_fill(std::uint8_t value, std::size_t count);

  // The bytes written so far; like an inline Buffer's view, it points into
  // the writer while size() <= Buffer::kInlineCapacity.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_, size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  // Moves the accumulated bytes out as an immutable Buffer (no additional
  // allocation: a large write hands its block over, a small one is copied
  // into the handle), leaving the writer empty.
  [[nodiscard]] Buffer take();

 private:
  void grow_to(std::size_t min_capacity);
  // Returns the write cursor after ensuring room for `extra` more bytes.
  std::uint8_t* make_room(std::size_t extra);
  // Leaves `other` empty.
  void steal(Writer& other) noexcept;

  std::uint8_t small_[Buffer::kInlineCapacity] = {};
  std::shared_ptr<std::uint8_t[]> block_;  // null while the bytes fit small_
  std::uint8_t* data_ = small_;
  std::size_t size_ = 0;
  std::size_t capacity_ = Buffer::kInlineCapacity;
};

}  // namespace mage::serial
