// RMI wire envelopes.
//
// Every MAGE network interaction is a request/reply pair ("mobility
// attributes boil down to RMI calls", Section 4.2).  A Request names the
// remote operation (an interned VerbId) and carries a serialized argument
// body; a Reply carries either a result body or a remote error string.
// Replies double as acknowledgements; retransmitted Requests are
// deduplicated at the receiver (at-most-once execution).
//
// The body is a scatter-gather fragment list (serial::BufferChain): the
// rts proto layer splices pre-serialized payloads (invocation args, object
// state, results) into the body by refcount, and the header declares the
// fragment sizes so the receiver can reconstruct the list without copying.
//
// Wire layout (header ++ body fragments, little-endian):
//   u8 tag | u64 request_id | u32 verb | [reply: u8 ok, !ok: str error]
//   | fragment framing | fragment bytes, concatenated
// The tag byte packs the kind (bits 0-1: 0 = Request, 1 = Reply,
// 2 = OneWay, 3 = Batch) with the single-fragment flag (bit 6,
// kSingleFragmentFlag).  A OneWay envelope is framed exactly like a
// Request; it just promises the sender expects no Reply.  Fragment framing
// is
//   flag set:    u32 size                       (exactly one fragment)
//   flag clear:  u8 count | u32 size × count    (0 or 2+ fragments)
// The flag is the hot path: the overwhelmingly common single-buffer body
// (every raw echo, every cached reply) skips the fragment-count byte and
// the per-fragment encode/validate loop — the "single-fragment fast path"
// that reclaims the 2-node echo floor (docs/PERF.md), asserted live by
// bench_hotpath via the fast_path_headers counter.
//
// Batch framing (kind 3, never nested, fast-path flag never set):
//   u8 tag(=3) | u32 count | count × { u32 size | sub-envelope bytes }
// where each sub-envelope is the concatenated (flat) form of a Request,
// Reply, or OneWay envelope and `size` is its exact byte length.
// encode_batch() gathers any number of envelopes into one buffer with one
// allocation; decode_batch() reconstructs them as zero-copy slices.
//
// On the wire a verb is its interned 32-bit id.  The byte-level contract —
// including the fragment-list framing and the u32 size limits — is
// docs/WIRE_FORMAT.md; the transport sends header and fragments as separate
// ref-counted buffers (scatter-gather), so body bytes are never re-copied.
// encode()/decode(flat) provide the concatenated form for tests and tools.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/verb.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"

namespace mage::serial {
class Writer;
}  // namespace mage::serial

namespace mage::rmi {

enum class EnvelopeKind : std::uint8_t {
  Request = 0,
  Reply = 1,
  OneWay = 2,  // a Request that wants no Reply (framed like a Request)
};

// Tag-byte value of a batch container (EnvelopeKind never takes this
// value: a batch is a frame *around* envelopes, not an envelope).
inline constexpr std::uint8_t kBatchTag = 3;

// Tag-byte bit marking the single-fragment fast path (see file comment).
inline constexpr std::uint8_t kSingleFragmentFlag = 0x40;

struct Envelope {
  EnvelopeKind kind = EnvelopeKind::Request;
  common::RequestId request_id;
  common::VerbId verb;              // Request: operation; Reply: echo
  bool ok = true;                   // Reply only: false => error
  std::string error;                // Reply only, when !ok
  serial::BufferChain body;         // args (Request) or result (Reply)

  // Framing bytes only (everything but the fragment bytes); the transport
  // pairs this with `body` in a scatter-gather net::Message.
  [[nodiscard]] serial::Buffer encode_header() const;

  // Concatenated header ++ fragments (gathers the body — test/tool
  // convenience, not the hot path).
  [[nodiscard]] serial::Buffer encode() const;

  // Exact byte length of the concatenated form; lets a caller pre-reserve
  // a Writer so a multi-envelope gather stays a single allocation.
  [[nodiscard]] std::size_t encoded_size() const;

  // Appends the concatenated form (header ++ fragment bytes) to `w`.
  void encode_into(serial::Writer& w) const;

  // Decodes a scatter-gather pair; validates the body's fragment count and
  // sizes against the header's declarations.  The envelope takes `body`
  // (one move); the const overload copies it.  `header` becomes the
  // reader's own copy (serial/reader.hpp): move it in.
  static Envelope decode(serial::Buffer header, serial::BufferChain&& body);
  static Envelope decode(serial::Buffer header,
                         const serial::BufferChain& body) {
    return decode(std::move(header), serial::BufferChain(body));
  }

  // Decodes the concatenated form; body fragments are slices of `flat`
  // (aliasing it when it is shared, serial/buffer.hpp).
  static Envelope decode(serial::Buffer flat);

  // --- batch container ------------------------------------------------------

  // True when `wire` starts with the batch tag (kind bits == kBatchTag).
  [[nodiscard]] static bool is_batch(const serial::Buffer& wire);

  // Gathers `envelopes` into one batch frame with exactly one allocation.
  [[nodiscard]] static serial::Buffer encode_batch(
      const std::vector<Envelope>& envelopes);

  // Splits a batch frame back into envelopes; each sub-envelope's body
  // fragments are slices of `wire` (aliasing it when it is shared).
  // Rejects nested batches.
  [[nodiscard]] static std::vector<Envelope> decode_batch(
      serial::Buffer wire);
  // The same into `out`, replacing its contents: a receiver that keeps
  // `out` decodes frame after frame with no allocation once its capacity
  // covers the largest frame.
  static void decode_batch(serial::Buffer wire, std::vector<Envelope>& out);

  // --- fast-path accounting (bench_hotpath's assertion hook) ---------------

  // Headers encoded via the single-fragment fast path vs the general
  // fragment-list path by the calling thread since its last reset.  Per
  // thread, so the send path shares no counter between workers: read them
  // on the thread that runs the simulation (a one-shard run, or a
  // ShardedSim at one worker, runs inline on the caller).
  [[nodiscard]] static std::uint64_t fast_path_headers();
  [[nodiscard]] static std::uint64_t list_path_headers();
  static void reset_header_counters();
};

}  // namespace mage::rmi
