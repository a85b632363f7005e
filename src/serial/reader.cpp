#include "serial/reader.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "serial/writer.hpp"

namespace mage::serial {

void Reader::require(std::size_t n) const {
  if (remaining() < n) {
    throw common::SerializationError(
        "truncated payload: need " + std::to_string(n) + " bytes, have " +
        std::to_string(remaining()));
  }
}

template <typename Sink>
void Reader::consume(std::size_t size, Sink sink) {
  while (size > 0) {
    if (cur_ == end_) enter(frag_ + 1);
    const std::size_t n = std::min(size, left());
    sink(cur_, n);
    cur_ += n;
    size -= n;
  }
}

void Reader::gather(void* out, std::size_t size) {
  require(size);
  auto* dst = static_cast<std::uint8_t*>(out);
  consume(size, [&dst](const std::uint8_t* piece, std::size_t n) {
    std::memcpy(dst, piece, n);
    dst += n;
  });
}

template <typename T>
T Reader::read_le() {
  std::uint8_t raw[sizeof(T)];
  read_raw(raw, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(raw, raw + sizeof(T));
  }
  T v;
  std::memcpy(&v, raw, sizeof(T));
  return v;
}

std::uint8_t Reader::read_u8() { return read_le<std::uint8_t>(); }
std::uint32_t Reader::read_u32() { return read_le<std::uint32_t>(); }
std::uint64_t Reader::read_u64() { return read_le<std::uint64_t>(); }

std::int32_t Reader::read_i32() {
  return static_cast<std::int32_t>(read_u32());
}

std::int64_t Reader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

bool Reader::read_bool() { return read_u8() != 0; }

double Reader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::read_string() {
  const std::uint32_t size = read_u32();
  if (size <= left()) {
    std::string out(reinterpret_cast<const char*>(cur_), size);
    cur_ += size;
    return out;
  }
  require(size);  // before sizing the string
  std::string out(size, '\0');
  gather(out.data(), size);
  return out;
}

Buffer Reader::read_bytes() { return read_slice(read_u32()); }

Buffer Reader::read_slice(std::size_t size) {
  require(size);
  if (size == 0) return {};
  while (cur_ == end_) enter(frag_ + 1);
  if (size <= left()) {
    const Buffer& f = chain_.fragment(frag_);
    Buffer out = f.slice(static_cast<std::size_t>(cur_ - f.data()), size);
    cur_ += size;
    return out;
  }
  Writer w(size);
  consume(size, [&w](const std::uint8_t* piece, std::size_t n) {
    w.write_raw(piece, n);
  });
  Buffer::note_deep_copy(size);
  return w.take();
}

void Reader::skip(std::size_t size) {
  require(size);
  consume(size, [](const std::uint8_t*, std::size_t) {});
}

}  // namespace mage::serial
