#include "serial/chain.hpp"

#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace mage::serial {

// --- BufferChain ------------------------------------------------------------

void BufferChain::throw_full() {
  throw common::SerializationError("body chain exceeds " +
                                   std::to_string(kMaxFragments) +
                                   " fragments");
}

Buffer BufferChain::flatten() const {
  if (count_ == 0) return {};
  if (count_ == 1) return fragment(0);
  Writer w(total_);
  for (std::size_t i = 0; i < count_; ++i) {
    w.write_raw(fragment(i).data(), fragment(i).size());
  }
  Buffer::note_deep_copy(total_);
  return w.take();
}

void BufferChain::write_to(Writer& w) const {
  for (std::size_t i = 0; i < count_; ++i) {
    w.write_raw(fragment(i).data(), fragment(i).size());
  }
}

namespace {

// Lexicographic walk over a chain's logical bytes.
struct ChainCursor {
  const BufferChain& chain;
  std::size_t frag = 0;
  std::size_t offset = 0;

  // Next contiguous unread piece (empty only when exhausted).
  std::span<const std::uint8_t> piece() {
    while (frag < chain.fragments()) {
      const Buffer& f = chain.fragment(frag);
      if (offset < f.size()) return {f.data() + offset, f.size() - offset};
      ++frag;
      offset = 0;
    }
    return {};
  }
  void advance(std::size_t n) { offset += n; }
};

bool equals_bytes(const BufferChain& a, const std::uint8_t* b,
                  std::size_t b_size) {
  if (a.size() != b_size) return false;
  ChainCursor cur{a};
  std::size_t off = 0;
  while (off < b_size) {
    const auto piece = cur.piece();
    if (std::memcmp(piece.data(), b + off, piece.size()) != 0) return false;
    cur.advance(piece.size());
    off += piece.size();
  }
  return true;
}

}  // namespace

bool operator==(const BufferChain& a, const BufferChain& b) {
  if (a.size() != b.size()) return false;
  ChainCursor ca{a};
  ChainCursor cb{b};
  std::size_t left = a.size();
  while (left > 0) {
    auto pa = ca.piece();
    auto pb = cb.piece();
    const std::size_t n = pa.size() < pb.size() ? pa.size() : pb.size();
    if (std::memcmp(pa.data(), pb.data(), n) != 0) return false;
    ca.advance(n);
    cb.advance(n);
    left -= n;
  }
  return true;
}

bool operator==(const BufferChain& a, const Buffer& b) {
  return equals_bytes(a, b.data(), b.size());
}

bool operator==(const BufferChain& a, const std::vector<std::uint8_t>& b) {
  return equals_bytes(a, b.data(), b.size());
}

// --- ChainWriter ------------------------------------------------------------

void ChainWriter::seal() {
  if (writer_.size() > 0) chain_.append(writer_.take());
}

void ChainWriter::append_payload(const Buffer& payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw common::SerializationError(
        "payload of " + std::to_string(payload.size()) +
        " bytes exceeds the u32 length prefix");
  }
  writer_.write_u32(static_cast<std::uint32_t>(payload.size()));
  if (payload.empty()) return;  // bare prefix; no fragment spent
  seal();
  chain_.append(payload);
}

BufferChain ChainWriter::take() {
  seal();
  return std::move(chain_);
}

}  // namespace mage::serial
