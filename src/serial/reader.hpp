// Byte-oriented serialization reader, mirror of Writer and ChainWriter.
//
// A Reader reads the logical byte stream of a BufferChain (serial/chain.hpp);
// a Buffer is the one-fragment chain.  All reads are bounds-checked: a
// truncated or corrupt payload raises common::SerializationError rather than
// reading past the end, so a mangled network message can never corrupt a
// namespace.
//
// The cursor is a fragment and a position in it.  A read that lies inside
// that fragment takes the contiguous fast path, and read_slice()/
// read_bytes() then return a zero-copy slice of the fragment (sharing its
// block, or inline when it is inline): nested payloads (invocation args,
// migrated state, an envelope's fragments) decode without duplicating a
// byte.  Every read of a Writer's output, and of a ChainWriter's, is such a
// read, since append_payload() aligns fragment boundaries with block
// boundaries.  A read that straddles fragments gathers across them; a
// straddling slice is a counted deep copy.
//
// Ownership: every reader reads its own copy of the chain (handles, never
// bytes; pass an rvalue to move them in).  The bytes of an inline fragment
// live in its handle (serial/buffer.hpp), so reading a copy is what keeps a
// reader valid after its argument dies and lets the slices it returns
// outlive it — and why the cursor, which may point into those handles,
// makes a Reader neither copyable nor movable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "serial/buffer.hpp"
#include "serial/chain.hpp"

namespace mage::serial {

class Reader {
 public:
  explicit Reader(BufferChain chain)
      : chain_(std::move(chain)), rest_(chain_.size()) {
    if (chain_.fragments() == 0) chain_.append({});
    enter(0);
  }
  explicit Reader(Buffer buffer) : rest_(buffer.size()) {  // one fragment
    chain_.append(std::move(buffer));
    enter(0);
  }

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  std::int64_t read_i64();
  bool read_bool();
  double read_f64();
  std::string read_string();
  // Length-prefixed byte block, mirror of Writer::write_bytes: a u32 size,
  // then read_slice(size).
  Buffer read_bytes();
  // The next `size` bytes: a slice of their fragment when they lie in one,
  // a counted gather when they straddle fragments.
  Buffer read_slice(std::size_t size);
  void read_raw(void* out, std::size_t size) {
    if (size > left()) return gather(out, size);
    std::memcpy(out, cur_, size);
    cur_ += size;
  }
  // Advances past `size` bytes without materialising them (bounds-checked
  // up front, so a wire-declared size is validated before anything is
  // allocated).
  void skip(std::size_t size);

  [[nodiscard]] std::size_t remaining() const { return left() + rest_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  // Unread bytes in the fragment under the cursor.
  [[nodiscard]] std::size_t left() const {
    return static_cast<std::size_t>(end_ - cur_);
  }
  // Moves the cursor to the start of fragment `i`.
  void enter(std::size_t i) {
    const Buffer& f = chain_.fragment(i);
    frag_ = i;
    cur_ = f.data();
    end_ = cur_ + f.size();
    rest_ -= f.size();
  }
  // Throws SerializationError unless `n` bytes remain.
  void require(std::size_t n) const;
  // Hands the next `size` bytes, which must remain, to `sink(data, n)` one
  // fragment's piece at a time.
  template <typename Sink>
  void consume(std::size_t size, Sink sink);
  // read_raw() across fragments, or the throw for too few bytes.
  void gather(void* out, std::size_t size);
  template <typename T>
  T read_le();

  BufferChain chain_;  // never empty: at least one, possibly empty, fragment
  std::size_t frag_ = 0;               // fragment under the cursor
  const std::uint8_t* cur_ = nullptr;  // next unread byte in it
  const std::uint8_t* end_ = nullptr;  // its end
  std::size_t rest_ = 0;               // bytes in the fragments after it
};

}  // namespace mage::serial
