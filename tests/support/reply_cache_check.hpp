// A duplicate request gets the first reply's wire bytes, from every form
// the at-most-once cache keeps a reply in (rmi::Transport::CachedReply):
// packed bodies (none, 8 bytes, 21+8 bytes), a handle (one shared 512-byte
// fragment), and spilled replies (two fragments over 40 bytes, three
// fragments, an error).  Shared by rmi_test (a plain link) and batch_test
// (a batched link).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/verb.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rmi/transport.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/writer.hpp"
#include "sim/simulation.hpp"

namespace mage::testing {

struct ReplyShape {
  const char* name;
  bool ok;
  serial::BufferChain body;  // when ok
  std::string error;         // when !ok
};

inline serial::Buffer patterned_fragment(std::size_t size, std::uint8_t seed) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + 7 * i);
  }
  return serial::Buffer(std::move(bytes));
}

inline serial::BufferChain fragments(std::initializer_list<std::size_t> sizes,
                                     std::uint8_t seed) {
  serial::BufferChain chain;
  for (const std::size_t size : sizes) {
    chain.append(patterned_fragment(size, seed++));
  }
  return chain;
}

inline std::vector<ReplyShape> reply_shapes() {
  return {
      {"empty body", true, {}, {}},
      {"8-byte body", true, fragments({8}, 10), {}},
      {"21+8-byte two-fragment body", true, fragments({21, 8}, 20), {}},
      {"shared 512-byte fragment", true, fragments({512}, 30), {}},
      {"two fragments over 40 bytes", true, fragments({24, 17}, 40), {}},
      {"three-fragment body", true, fragments({4, 9, 30}, 50), {}},
      {"error reply", false, {}, "shape failed: an error is kept whole"},
  };
}

// One reply as it reached the caller's node: its decoded envelope and its
// header bytes (a batch frame's sub-envelope has its header re-encoded
// from the decoded fields and fragment sizes, which it determines).
struct WireReply {
  net::MsgKind kind;
  rmi::Envelope envelope;
  std::vector<std::uint8_t> header;
};

// Calls tb's service once per shape from ta, with every call in flight at
// once (so on a batched link the replies share frames).  The caller's node
// handler is swapped for a recorder: no reply completes its call, so every
// call retransmits after the reply went out, and tb answers the duplicate
// from its cache.  Checks that each service ran once, that duplicates
// were suppressed, and that each shape's duplicate reply has the original
// reply's header bytes and fragments (count, sizes, bytes).  Returns the
// number of batch frames that carried replies.
inline int expect_duplicates_get_first_reply_bytes(
    sim::Simulation& sim, net::Network& net, rmi::Transport& ta,
    rmi::Transport& tb, common::NodeId a, common::NodeId b) {
  const std::vector<ReplyShape> shapes = reply_shapes();
  std::vector<int> executions(shapes.size(), 0);
  const common::VerbId verb = common::intern_verb("test.reply_shape");
  tb.register_service(verb, [&](common::NodeId, const serial::BufferChain& body,
                                rmi::Replier replier) {
    const std::uint8_t shape = body.fragment(0)[0];
    ++executions[shape];
    if (shapes[shape].ok) {
      replier.ok(shapes[shape].body);
    } else {
      replier.error(shapes[shape].error);
    }
  });

  std::map<std::uint64_t, std::vector<WireReply>> replies;  // by request id
  int reply_frames = 0;
  const auto record = [&replies](net::MsgKind kind, rmi::Envelope env,
                                 const serial::Buffer& header) {
    if (env.kind != rmi::EnvelopeKind::Reply) return;
    const std::uint64_t id = env.request_id.value();
    replies[id].push_back(WireReply{
        kind, std::move(env), {header.begin(), header.end()}});
  };
  net.set_handler(a, [&](net::Message& msg) {
    if (rmi::Envelope::is_batch(msg.header)) {
      ++reply_frames;
      for (rmi::Envelope& env : rmi::Envelope::decode_batch(msg.header)) {
        const serial::Buffer header = env.encode_header();
        record(msg.kind, std::move(env), header);
      }
      return;
    }
    record(msg.kind, rmi::Envelope::decode(msg.header, msg.body), msg.header);
  });

  const std::int64_t suppressed_before =
      sim.stats().counter("rmi.duplicates_suppressed");
  rmi::CallOptions options;
  options.retry_timeout_us = 5'000;
  options.max_attempts = 10;
  std::vector<common::RequestId> ids;
  for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
    serial::Writer request(1);
    request.write_u8(static_cast<std::uint8_t>(shape));
    ids.push_back(ta.call(
        b, verb, request.take(),
        [](rmi::CallResult) { ADD_FAILURE() << "a reply reached the call"; },
        options));
  }
  EXPECT_TRUE(sim.run_until([&] {
    for (const common::RequestId id : ids) {
      if (replies[id.value()].size() < 2) return false;
    }
    return true;
  }));
  for (const common::RequestId id : ids) ta.cancel(id);
  sim.run_until_idle();

  EXPECT_GT(sim.stats().counter("rmi.duplicates_suppressed"),
            suppressed_before);
  for (std::size_t shape = 0; shape < shapes.size(); ++shape) {
    SCOPED_TRACE(shapes[shape].name);
    EXPECT_EQ(executions[shape], 1);
    const std::vector<WireReply>& seen = replies[ids[shape].value()];
    if (seen.size() < 2) {
      ADD_FAILURE() << "no duplicate reply recorded";
      continue;
    }
    const WireReply& first = seen[0];
    const WireReply& dup = seen[1];
    // The original is the service's reply, and the duplicate is its copy.
    EXPECT_EQ(first.envelope.ok, shapes[shape].ok);
    EXPECT_EQ(first.envelope.error, shapes[shape].error);
    EXPECT_TRUE(first.envelope.body == shapes[shape].body);
    EXPECT_EQ(first.envelope.body.fragments(),
              shapes[shape].body.fragments());
    if (first.kind != net::MsgKind::Batch) {
      EXPECT_EQ(first.kind, net::MsgKind::Reply);
      EXPECT_EQ(dup.kind, net::MsgKind::ReplyDup);
    }
    EXPECT_EQ(dup.header, first.header);
    EXPECT_EQ(dup.envelope.request_id, first.envelope.request_id);
    EXPECT_EQ(dup.envelope.verb, first.envelope.verb);
    EXPECT_EQ(dup.envelope.ok, first.envelope.ok);
    EXPECT_EQ(dup.envelope.error, first.envelope.error);
    EXPECT_EQ(dup.envelope.body.fragments(), first.envelope.body.fragments());
    if (dup.envelope.body.fragments() != first.envelope.body.fragments()) {
      continue;
    }
    for (std::size_t f = 0; f < first.envelope.body.fragments(); ++f) {
      const serial::Buffer& want = first.envelope.body.fragment(f);
      const serial::Buffer& got = dup.envelope.body.fragment(f);
      EXPECT_EQ(got.size(), want.size()) << "fragment " << f;
      EXPECT_TRUE(got == want) << "fragment " << f;
    }
  }
  return reply_frames;
}

}  // namespace mage::testing
