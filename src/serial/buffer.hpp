// Immutable byte buffer — the unit payloads travel in.
//
// A Buffer is produced once (Writer::take() hands over its bytes) and then
// flows through net::Message, rmi::Envelope, the transport's
// retransmission and reply-cache state, and CallResult.  The bytes
// themselves are never rewritten — which is what makes a steady-state
// simulated RMI call free of payload deep-copies.
//
// Size alone selects the storage:
//
//   * inline — a payload of at most kInlineCapacity (24) bytes lives inside
//     the 32-byte handle.  Copying such a Buffer copies the handle: no
//     allocation, no atomic refcount, and nothing for another core to
//     free.  Every envelope header of zero to two fragments and every small
//     echo body is inline.
//   * shared — anything larger is one make_shared<uint8_t[]> block (control
//     block and bytes in one allocation).  Copying bumps its refcount, and
//     a slice of it aliases the block at any length, so a large payload
//     keeps its pointer identity end to end.  Adopting a std::vector keeps
//     the vector's storage alive via shared_ptr aliasing (no byte copy, but
//     a second control-block allocation — fine off the hot path).
//
// A slice of an inline buffer is inline.
//
// Lifetime rule: data(), span(), begin() and end() of an inline buffer
// point into the handle itself, so such a view lives only as long as that
// handle and does not survive a move of it (a moved-from Buffer is empty).
// A holder that must outlive its argument keeps its own copy of the handle
// and views that copy: serial::Reader reads its own copy of the chain.
//
// Deep copies (Buffer::copy) are the only way bytes are ever duplicated on
// purpose, and they are counted: bench builds assert the hot path performs
// none (deep_copy_count/deep_copy_bytes).  Copying an inline handle is not
// a deep copy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace mage::serial {

class Writer;

class Buffer {
 public:
  // Payloads of at most this many bytes are stored inside the handle.
  static constexpr std::size_t kInlineCapacity = 24;

  Buffer() noexcept : inline_{} {}

  // Takes ownership of `bytes` without copying them (shared_ptr aliasing
  // keeps the vector alive); at most kInlineCapacity bytes are copied into
  // the handle instead.  Implicit: lets call sites keep passing byte-vector
  // rvalues where a Buffer is expected.  Throws SerializationError above
  // UINT32_MAX bytes.
  Buffer(std::vector<std::uint8_t>&& bytes);  // NOLINT(google-explicit-constructor)

  Buffer(std::initializer_list<std::uint8_t> bytes);

  [[nodiscard]] static Buffer adopt(std::vector<std::uint8_t> bytes) {
    return Buffer(std::move(bytes));
  }

  // Takes ownership of a writer-built array block whose first `size` bytes
  // are the payload; at most kInlineCapacity bytes are copied into the
  // handle and the block is released.  Throws SerializationError above
  // UINT32_MAX bytes.
  [[nodiscard]] static Buffer adopt_shared(
      std::shared_ptr<const std::uint8_t[]> storage, std::size_t size);

  // Deep copy — the counted slow path.  Throws SerializationError above
  // UINT32_MAX bytes.
  [[nodiscard]] static Buffer copy(std::span<const std::uint8_t> bytes);

  // Bumps the deep-copy counters without producing a buffer; gather paths
  // (multi-fragment flatten, cross-fragment reads) account through this.
  static void note_deep_copy(std::size_t bytes);

  // The bytes [offset, offset+length): an alias of this buffer's block
  // when it is shared, an inline copy when it is inline.  Throws
  // SerializationError when the range is out of bounds.
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t length) const;

  Buffer(const Buffer& other) noexcept
      : size_(other.size_), shared_(other.shared_) {
    if (shared_) {
      ::new (&owner_) Owner(other.owner_);
    } else {
      std::memcpy(inline_, other.inline_, kInlineCapacity);
    }
  }
  // A moved-from Buffer is empty.
  Buffer(Buffer&& other) noexcept { steal(other); }
  Buffer& operator=(const Buffer& other) noexcept {
    if (this != &other) *this = Buffer(other);
    return *this;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~Buffer() { release(); }

  [[nodiscard]] const std::uint8_t* data() const {
    return shared_ ? owner_.get() : inline_;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  // True when the bytes live inside this handle (see the file comment).
  [[nodiscard]] bool is_inline() const { return !shared_; }
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data(), size_};
  }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size_; }

  // Byte-wise equality (tests compare payloads).
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const Buffer& a,
                         const std::vector<std::uint8_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<std::uint8_t>& a, const Buffer& b) {
    return b == a;
  }

  // --- deep-copy accounting (the bench's zero-copy assertion hook) ---------

  [[nodiscard]] static std::uint64_t deep_copy_count();
  [[nodiscard]] static std::uint64_t deep_copy_bytes();
  static void reset_copy_counters();

 private:
  friend class Writer;  // take() builds inline buffers without counting

  using Owner = std::shared_ptr<const std::uint8_t[]>;

  // Shared storage: `owner` points at the first byte.
  Buffer(Owner owner, std::uint32_t size) noexcept
      : owner_(std::move(owner)), size_(size), shared_(true) {}

  // An inline buffer holding a copy of `size` (<= kInlineCapacity) bytes;
  // not counted as a deep copy.
  [[nodiscard]] static Buffer inline_copy(const std::uint8_t* data,
                                          std::size_t size) noexcept {
    Buffer out;
    if (size > 0) std::memcpy(out.inline_, data, size);
    out.size_ = static_cast<std::uint32_t>(size);
    return out;
  }

  // `size` as the handle's 32-bit size field; throws SerializationError
  // when it does not fit.
  static std::uint32_t checked_size(std::size_t size);

  void steal(Buffer& other) noexcept {
    size_ = other.size_;
    shared_ = other.shared_;
    if (shared_) {
      ::new (&owner_) Owner(std::move(other.owner_));
      other.release();
    } else {
      std::memcpy(inline_, other.inline_, kInlineCapacity);
    }
    other.size_ = 0;
  }

  void release() noexcept {
    if (shared_) {
      owner_.~Owner();
      shared_ = false;
    }
  }

  union {
    Owner owner_;                          // when shared_
    std::uint8_t inline_[kInlineCapacity];  // otherwise
  };
  std::uint32_t size_ = 0;
  bool shared_ = false;
};

static_assert(sizeof(Buffer) == 32, "a Buffer is a 32-byte handle");

}  // namespace mage::serial
