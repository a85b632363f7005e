// Scatter-gather payload chain: the envelope body as a fragment list.
//
// A BufferChain is an ordered list of serial::Buffer fragments (inline or
// ref-counted, serial/buffer.hpp) whose concatenation is the logical byte
// stream.  It is what lets the rts
// proto layer append an already-serialized payload (InvokeRequest::args, a
// migrating object's state, an InvokeReply result) to a message body by
// refcount instead of re-copying it at encode time:
//
//   ChainWriter w;                      // fields build in a Writer region
//   w.write_string(name);
//   w.append_payload(args);             // u32 prefix + zero-copy fragment
//   BufferChain body = w.take();        // [prefix-fragment, args-fragment]
//
// The logical stream a ChainWriter produces is byte-identical to what a
// plain Writer with write_bytes() would have produced — fragmentation is
// framing, not encoding.  serial::Reader (serial/reader.hpp) reads the
// logical stream back across fragment boundaries; reads that fall inside
// one fragment (every read, for writer-produced chains) are zero-copy, a
// read straddling a boundary gathers through the counted deep-copy path.
//
// Fragment count is capped at kMaxFragments so a chain lives inline (no
// heap node list) and rides in event captures; docs/WIRE_FORMAT.md is the
// byte-level contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "serial/buffer.hpp"
#include "serial/writer.hpp"

namespace mage::serial {

class BufferChain {
 public:
  // Inline fragment capacity.  The wire format allows up to 255 fragments
  // per message; this implementation caps senders at 4 (field prefix +
  // payload + field suffix + slack), which every proto struct fits in.
  static constexpr std::size_t kMaxFragments = 4;

  BufferChain() = default;

  // A single-fragment chain.  Implicit: lets every call site that used to
  // pass a Buffer body keep compiling unchanged.
  BufferChain(Buffer fragment) {  // NOLINT(google-explicit-constructor)
    append(std::move(fragment));
  }
  BufferChain(std::vector<std::uint8_t>&& bytes)  // NOLINT(google-explicit-constructor)
      : BufferChain(Buffer(std::move(bytes))) {}

  // Fragments live in raw inline storage, placement-constructed on append
  // (a fixed-capacity small-vector), so every special member costs
  // O(active fragments), usually one, not O(kMaxFragments).
  BufferChain(const BufferChain& other) { assign_from(other); }
  BufferChain& operator=(const BufferChain& other) {
    if (this != &other) {
      clear();
      assign_from(other);
    }
    return *this;
  }
  BufferChain(BufferChain&& other) noexcept { steal(other); }
  BufferChain& operator=(BufferChain&& other) noexcept {
    if (this != &other) {
      clear();
      steal(other);
    }
    return *this;
  }
  ~BufferChain() { clear(); }

  // Appends a fragment (a handle copy, never a deep copy).  Empty
  // fragments are legal (the wire carries a zero size).  Throws
  // SerializationError past kMaxFragments.  Inline: every decoded message
  // builds a serial::Reader through it.
  void append(Buffer fragment) {
    if (count_ >= kMaxFragments) throw_full();
    total_ += fragment.size();
    ::new (static_cast<void*>(slot(count_))) Buffer(std::move(fragment));
    ++count_;
  }

  [[nodiscard]] std::size_t fragments() const { return count_; }
  [[nodiscard]] const Buffer& fragment(std::size_t i) const {
    return *slot(i);
  }

  // Logical byte count (sum of fragment sizes).
  [[nodiscard]] std::size_t size() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  // The logical stream as one contiguous Buffer.  Free for 0- and
  // 1-fragment chains (shares storage); a counted deep-copy gather
  // otherwise — test/tool convenience, not the hot path.
  [[nodiscard]] Buffer flatten() const;

  // Appends the logical stream to `w` (the gather half of batch framing:
  // a pre-reserved Writer takes many chains with one allocation total).
  void write_to(Writer& w) const;

  // Byte-wise equality over the logical stream (tests compare payloads).
  friend bool operator==(const BufferChain& a, const BufferChain& b);
  friend bool operator==(const BufferChain& a, const Buffer& b);
  friend bool operator==(const Buffer& a, const BufferChain& b) {
    return b == a;
  }
  friend bool operator==(const BufferChain& a,
                         const std::vector<std::uint8_t>& b);
  friend bool operator==(const std::vector<std::uint8_t>& a,
                         const BufferChain& b) {
    return b == a;
  }

 private:
  [[nodiscard]] Buffer* slot(std::size_t i) {
    return std::launder(reinterpret_cast<Buffer*>(storage_) + i);
  }
  [[nodiscard]] const Buffer* slot(std::size_t i) const {
    return std::launder(reinterpret_cast<const Buffer*>(storage_) + i);
  }

  [[noreturn]] static void throw_full();

  void clear() noexcept {
    for (std::uint8_t i = 0; i < count_; ++i) slot(i)->~Buffer();
    count_ = 0;
    total_ = 0;
  }

  void steal(BufferChain& other) noexcept {
    count_ = other.count_;
    total_ = other.total_;
    for (std::uint8_t i = 0; i < count_; ++i) {
      ::new (static_cast<void*>(slot(i))) Buffer(std::move(*other.slot(i)));
      other.slot(i)->~Buffer();
    }
    other.count_ = 0;
    other.total_ = 0;
  }

  void assign_from(const BufferChain& other) {
    count_ = other.count_;
    total_ = other.total_;
    for (std::uint8_t i = 0; i < count_; ++i) {
      ::new (static_cast<void*>(slot(i))) Buffer(*other.slot(i));
    }
  }

  alignas(Buffer) unsigned char storage_[kMaxFragments * sizeof(Buffer)];
  std::uint8_t count_ = 0;
  std::size_t total_ = 0;
};

static_assert(sizeof(BufferChain) == 144,
              "a chain is four 32-byte handles, a count and a size");

// Writer for scatter-gather bodies: primitives accumulate in a Writer
// region; append_payload() closes the region as a fragment and splices the
// payload in by refcount.  take() yields the chain.
class ChainWriter {
 public:
  ChainWriter() = default;
  explicit ChainWriter(std::size_t reserve_bytes) : writer_(reserve_bytes) {}

  void write_u8(std::uint8_t v) { writer_.write_u8(v); }
  void write_u32(std::uint32_t v) { writer_.write_u32(v); }
  void write_u64(std::uint64_t v) { writer_.write_u64(v); }
  void write_i32(std::int32_t v) { writer_.write_i32(v); }
  void write_i64(std::int64_t v) { writer_.write_i64(v); }
  void write_bool(bool v) { writer_.write_bool(v); }
  void write_f64(double v) { writer_.write_f64(v); }
  void write_string(std::string_view v) { writer_.write_string(v); }
  void write_bytes(std::span<const std::uint8_t> v) { writer_.write_bytes(v); }
  void write_raw(const void* data, std::size_t size) {
    writer_.write_raw(data, size);
  }
  void write_fill(std::uint8_t value, std::size_t count) {
    writer_.write_fill(value, count);
  }

  // Writes the u32 length prefix inline, then splices `payload` in as its
  // own fragment — the zero-copy equivalent of write_bytes(payload.span()).
  // An empty payload degenerates to the bare prefix (no fragment spent).
  void append_payload(const Buffer& payload);

  [[nodiscard]] BufferChain take();

 private:
  // Closes the current writer region as a fragment, if non-empty.
  void seal();

  Writer writer_;
  BufferChain chain_;
};

class Reader;  // serial/reader.hpp reads a chain's logical stream.

// The chain reader's former name, kept while bench/e2e still spells it;
// it goes at that tree's next change.
using ChainReader = Reader;

}  // namespace mage::serial
