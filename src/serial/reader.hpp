// Byte-oriented serialization reader, mirror of Writer.
//
// All reads are bounds-checked; a truncated or corrupt payload raises
// common::SerializationError rather than reading past the end, so a mangled
// network message can never corrupt a namespace.
//
// Constructed over a serial::Buffer, the reader also offers zero-copy
// accessors: read_view() returns a string_view into the buffer, and
// read_bytes() returns a sub-Buffer sharing the parent's storage — nested
// payloads (invocation args, migrated state) decode without duplicating a
// byte.  The Buffer-constructed reader keeps its own copy of the handle and
// reads that copy, so its views stay valid for the reader's lifetime even
// when the argument was a temporary: an inline buffer's bytes live in the
// handle (serial/buffer.hpp), which is also why a Reader is neither copied
// nor moved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serial/buffer.hpp"

namespace mage::serial {

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  // Reads its own copy of `buffer`, so a view returned by read_view() stays
  // valid for the reader's lifetime (for a shared buffer, as long as its
  // block lives), and read_bytes() slices stand alone.
  explicit Reader(const Buffer& buffer)
      : owner_(buffer), bytes_(owner_.span()) {}
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes.data(), bytes.size()) {}

  // bytes_ may point into owner_.
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  std::int64_t read_i64();
  bool read_bool();
  double read_f64();
  std::string read_string();
  // Zero-copy mirror of read_string: a view into the bytes being read.
  std::string_view read_view();
  // Length-prefixed byte block (mirror of Writer::write_bytes).  A slice
  // when this reader was constructed over a Buffer (sharing its block, or
  // inline when it is inline); a counted deep copy otherwise.
  Buffer read_bytes();
  // The next `size` raw bytes as a view, advancing the cursor (lifetime as
  // read_view's).
  std::span<const std::uint8_t> read_span(std::size_t size);
  void read_raw(void* out, std::size_t size);

  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  void require(std::size_t n) const;

  Buffer owner_;  // empty unless constructed from a Buffer
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace mage::serial
