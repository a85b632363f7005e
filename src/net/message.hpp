// Wire message: the unit the simulated network delivers between namespaces.
//
// The payload is opaque to the network; upper layers (src/rmi) serialize
// envelopes into it.  Scatter-gather framing: `header` carries the envelope
// framing bytes as one ref-counted serial::Buffer and `body` the
// application payload as a serial::BufferChain fragment list — so
// forwarding a message never copies payload bytes (the wire-equivalent
// byte stream is header ++ the concatenated fragments).
//
// `verb` + `kind` duplicate the envelope's operation purely for tracing and
// stats — benches reconstruct the paper's protocol figures (Figure 1,
// Figure 7) from the sequence of verbs on the wire.
#pragma once

#include <cstdint>
#include <string>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/verb.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"

namespace mage::net {

// Fixed per-message framing overhead charged by the cost model
// (Ethernet + IP + TCP headers plus RMI stream framing).
inline constexpr std::size_t kHeaderBytes = 96;

// What a message is, for trace labels: requests print the verb, replies
// "<verb>.reply", duplicate-suppression re-sends "<verb>.re", one-way
// (no-reply) requests "<verb>.oneway", and batch frames the batch verb
// itself (the sub-envelope verbs live inside the frame).
enum class MsgKind : std::uint8_t {
  Request = 0,
  Reply = 1,
  ReplyDup = 2,
  OneWay = 3,
  Batch = 4,
};

struct Message {
  common::NodeId from;
  common::NodeId to;
  common::VerbId verb;   // operation name, for tracing only
  MsgKind kind = MsgKind::Request;
  serial::Buffer header;      // envelope framing
  serial::BufferChain body;   // application payload fragments
  // Per-directed-link delivery stamp, 1, 2, 3, ... on every non-loopback
  // message (starting over when the sender crashes or restarts), for the
  // network's always-on wire-FIFO self-check (see Network::link_epoch);
  // 0 = loopback or not sent yet.  Simulation-side only — never
  // serialized to the wire.
  std::uint64_t wire_seq = 0;
  // Link epoch at send time (crash/restart/partition transitions of the
  // link bump it).  The receiver's FIFO check resets its expected wire_seq
  // when the epoch changes, so a restarted sender — whose seq counters
  // start over — cannot trip a spurious violation.  Simulation-side only.
  std::int64_t link_epoch = 0;

  [[nodiscard]] std::size_t payload_size() const {
    return header.size() + body.size();
  }
  [[nodiscard]] std::size_t wire_size() const {
    return payload_size() + kHeaderBytes;
  }

  // Trace/debug label: the verb name plus the kind suffix.
  [[nodiscard]] std::string label() const;
};

// One entry of the network's message trace (enabled on demand; benches use
// it to print protocol diagrams).
struct TraceEntry {
  common::SimTime sent_at;
  common::SimTime delivered_at;  // -1 when dropped
  common::NodeId from;
  common::NodeId to;
  std::string verb;
  std::size_t wire_size;
  bool dropped;
};

}  // namespace mage::net
