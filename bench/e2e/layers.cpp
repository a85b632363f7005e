#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rmi/transport.hpp"
#include "rts/protocol.hpp"
#include "serial/chain.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace e2e {
namespace {

using namespace mage;
using Clock = std::chrono::steady_clock;

// Results fold into this so the optimizer cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

// Runs `batch` (which performs `ops` operations) until `budget_s` has
// passed and at least five batches ran; returns the median ns per op.
template <typename Batch>
double median_ns(double budget_s, std::size_t ops, Batch&& batch) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             budget_s) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(ops));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

common::VerbId layer_verb() {
  static const common::VerbId verb = common::intern_verb("e2e.layer");
  return verb;
}

// The request bodies one op of the workload carries: 8-byte echo bodies,
// or proto InvokeRequests at the mobile argument-size mix.
std::vector<serial::BufferChain> request_bodies(const MessageMix& mix) {
  std::vector<serial::BufferChain> bodies;
  constexpr int kBodies = 100;
  for (int i = 0; i < kBodies; ++i) {
    if (!mix.mobile) {
      serial::Writer w(8);
      w.write_u64(static_cast<std::uint64_t>(i));
      bodies.emplace_back(w.take());
      continue;
    }
    const bool large =
        i < static_cast<int>(std::lround(mix.large_arg_share * kBodies));
    const std::size_t size = large ? mix.large_arg_bytes : mix.small_arg_bytes;
    serial::Writer args(size);
    args.write_fill(static_cast<std::uint8_t>(i), size);
    bodies.push_back(
        rts::proto::InvokeRequest{"session" + std::to_string(i % 64), "work",
                                  args.take()}
            .encode());
  }
  return bodies;
}

// One event at the workload's queue depth: each step pops the earliest
// event, whose action schedules its successor a pseudo-random delay out.
double time_event(const MessageMix& mix, double budget_s) {
  sim::Simulation sim(1);
  std::vector<common::SimDuration> delays(1024);
  common::Rng rng(7);
  for (auto& d : delays) d = rng.next_range(1, 1000);
  struct Hop {
    sim::Simulation* sim;
    const std::vector<common::SimDuration>* delays;
    std::size_t* next;
    void operator()() const {
      sim->schedule_after((*delays)[(*next)++ & 1023], Hop{*this},
                          sim::Wake::No);
    }
  };
  std::size_t next = 0;
  for (std::size_t i = 0; i < mix.queue_depth; ++i) {
    sim.schedule_after(delays[i & 1023], Hop{&sim, &delays, &next},
                       sim::Wake::No);
  }
  constexpr std::size_t kOps = 20'000;
  return median_ns(budget_s, kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) (void)sim.step();
  });
}

// Posts of empty events to every shard while stopped, then one run that
// drains the mailboxes and executes them.
double time_post_drain(const MessageMix& mix, double budget_s) {
  const std::size_t shards = std::max<std::size_t>(mix.shards, 2);
  sim::ShardedSim ssim(shards, 1, 1'000);
  constexpr std::size_t kOps = 8'192;
  common::SimTime at = 0;
  return median_ns(budget_s, kOps, [&] {
    at += 10;
    for (std::size_t i = 0; i < kOps; ++i) {
      ssim.post((i + 1) % shards, i % shards, at, [] {}, sim::Wake::No);
    }
    ssim.run_until_idle(1);
  });
}

// Empty windows: one self-rescheduling tick per shard per window, so the
// cost is the barrier plus the control step.
double time_barrier(const MessageMix& mix, int workers, double budget_s) {
  constexpr common::SimDuration kLookahead = 100;
  sim::ShardedSim ssim(mix.shards, 1, kLookahead);
  struct Tick {
    sim::Simulation* sim;
    void operator()() const {
      sim->schedule_after(kLookahead, Tick{sim}, sim::Wake::No);
    }
  };
  for (std::size_t s = 0; s < mix.shards; ++s) {
    ssim.shard(s).schedule_at(0, Tick{&ssim.shard(s)}, sim::Wake::No);
  }
  constexpr std::size_t kWindows = 2'000;
  common::SimTime deadline = 0;
  return median_ns(budget_s, kWindows, [&] {
    deadline += static_cast<common::SimTime>(kWindows) * kLookahead;
    (void)ssim.run_until(nullptr, workers, deadline - 1);
  });
}

// A 2-node zero-cost network on one plain Simulation.
struct Pair {
  sim::Simulation sim{1};
  net::Network net{sim, net::CostModel::zero()};
  common::NodeId a = net.add_node("a");
  common::NodeId b = net.add_node("b");
};

double time_send_deliver(const std::vector<serial::BufferChain>& bodies,
                         double budget_s) {
  Pair pair;
  std::uint64_t delivered = 0;
  pair.net.set_handler(pair.b, [&delivered](net::Message m) {
    delivered += m.body.size();
  });
  std::vector<serial::Buffer> headers;
  for (const auto& body : bodies) {
    rmi::Envelope env;
    env.request_id = common::RequestId{1};
    env.verb = layer_verb();
    env.body = body;
    headers.push_back(env.encode_header());
  }
  const std::size_t ops = bodies.size() * 20;
  const double ns = median_ns(budget_s, ops, [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t k = i % bodies.size();
      pair.net.send(net::Message{pair.a, pair.b, layer_verb(),
                                 net::MsgKind::Request, headers[k],
                                 bodies[k]});
      (void)pair.sim.step();
    }
  });
  g_sink = g_sink + delivered;
  return ns;
}

void time_envelopes(const std::vector<serial::BufferChain>& bodies,
                    double budget_s, LayerTimings& out) {
  std::vector<rmi::Envelope> envs(bodies.size());
  std::vector<serial::Buffer> headers;
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    envs[k].request_id = common::RequestId{k + 1};
    envs[k].verb = layer_verb();
    envs[k].body = bodies[k];
    headers.push_back(envs[k].encode_header());
  }
  const std::size_t ops = bodies.size() * 50;
  std::uint64_t sink = 0;
  out.envelope_encode_ns = median_ns(budget_s, ops, [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      sink += envs[i % envs.size()].encode_header().size();
    }
  });
  out.envelope_decode_ns = median_ns(budget_s, ops, [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t k = i % envs.size();
      sink += rmi::Envelope::decode(headers[k], bodies[k]).body.size();
    }
  });
  g_sink = g_sink + sink;
}

void time_batches(const std::vector<serial::BufferChain>& bodies,
                  std::size_t frame, double budget_s, LayerTimings& out) {
  std::vector<rmi::Envelope> envs(frame);
  for (std::size_t k = 0; k < frame; ++k) {
    envs[k].request_id = common::RequestId{k + 1};
    envs[k].verb = layer_verb();
    envs[k].body = bodies[k % bodies.size()];
  }
  const serial::Buffer wire = rmi::Envelope::encode_batch(envs);
  constexpr std::size_t kFrames = 200;
  std::uint64_t sink = 0;
  out.batch_encode_ns = median_ns(budget_s, kFrames * frame, [&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      sink += rmi::Envelope::encode_batch(envs).size();
    }
  });
  out.batch_decode_ns = median_ns(budget_s, kFrames * frame, [&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      sink += rmi::Envelope::decode_batch(wire).size();
    }
  });
  g_sink = g_sink + sink;
}

// Echo round trips between two zero-cost transports, `burst` calls at a
// time (a batch frame's worth when the workload batches).
void time_call_rtt(const std::vector<serial::BufferChain>& bodies,
                   std::size_t burst, bool batched, double budget_s,
                   LayerTimings& out) {
  Pair pair;
  rmi::Transport caller(pair.net, pair.a);
  rmi::Transport callee(pair.net, pair.b);
  if (batched) {
    rmi::BatchOptions batch;
    batch.enabled = true;
    batch.flush_quantum_us = 1;
    caller.set_batching(batch);
    callee.set_batching(batch);
  }
  callee.register_service(layer_verb(),
                          [](common::NodeId, const serial::BufferChain& body,
                             rmi::Replier replier) { replier.ok(body); });
  std::int64_t completed = 0;
  std::int64_t events = 0;
  std::size_t next = 0;
  const std::size_t calls = std::max<std::size_t>(burst, 1) * 200;
  const std::int64_t* sent =
      pair.sim.stats().counter_handle("net.messages_sent");
  const std::int64_t sent_before = *sent;
  std::int64_t batches = 0;
  out.call_rtt_ns = median_ns(budget_s, calls, [&] {
    for (std::size_t i = 0; i < calls; i += burst) {
      for (std::size_t j = 0; j < burst; ++j) {
        caller.call(pair.b, layer_verb(), bodies[next++ % bodies.size()],
                    [&completed](rmi::CallResult) { ++completed; });
      }
      while (pair.sim.step()) ++events;
    }
    ++batches;
  });
  const double total_calls =
      static_cast<double>(calls) * static_cast<double>(batches);
  out.events_per_call = static_cast<double>(events) / total_calls;
  out.msgs_per_call = static_cast<double>(*sent - sent_before) / total_calls;
  g_sink = g_sink + static_cast<std::uint64_t>(completed);
}

void time_serial(const MessageMix& mix, double transfers_per_invoke,
                 double budget_s, LayerTimings& out) {
  std::uint64_t sink = 0;
  if (!mix.mobile) {
    constexpr std::size_t kOps = 20'000;
    serial::Writer w(8);
    w.write_u64(42);
    const serial::BufferChain body(w.take());
    out.serial_encode_ns = median_ns(budget_s, kOps, [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        serial::Writer body_writer(8);
        body_writer.write_u64(i);
        sink += body_writer.take().size();
      }
    });
    out.serial_decode_ns = median_ns(budget_s, kOps, [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        serial::ChainReader reader(body);
        sink += reader.read_u64();
      }
    });
    g_sink = g_sink + sink;
    return;
  }
  // Invokes at the argument-size mix, plus the session transfers that
  // ride along at the workload's migrations-per-invoke ratio.
  const std::vector<serial::BufferChain> invokes = request_bodies(mix);
  std::vector<rts::proto::InvokeRequest> requests;
  for (const auto& body : invokes) {
    requests.push_back(rts::proto::InvokeRequest::decode(body));
  }
  serial::Writer state(mix.state_bytes + 24);
  state.write_fill(7, mix.state_bytes + 24);
  const rts::proto::TransferRequest transfer{"session1", "Session", true, 2,
                                             state.take()};
  const serial::BufferChain transfer_body = transfer.encode();
  const std::size_t ops = invokes.size() * 20;
  const double invoke_encode = median_ns(budget_s / 2, ops, [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      sink += requests[i % requests.size()].encode().size();
    }
  });
  const double invoke_decode = median_ns(budget_s / 2, ops, [&] {
    for (std::size_t i = 0; i < ops; ++i) {
      sink += rts::proto::InvokeRequest::decode(invokes[i % invokes.size()])
                  .args.size();
    }
  });
  constexpr std::size_t kTransfers = 2'000;
  const double transfer_encode = median_ns(budget_s / 2, kTransfers, [&] {
    for (std::size_t i = 0; i < kTransfers; ++i) {
      sink += transfer.encode().size();
    }
  });
  const double transfer_decode = median_ns(budget_s / 2, kTransfers, [&] {
    for (std::size_t i = 0; i < kTransfers; ++i) {
      sink += rts::proto::TransferRequest::decode(transfer_body).state.size();
    }
  });
  out.serial_encode_ns = invoke_encode + transfers_per_invoke * transfer_encode;
  out.serial_decode_ns = invoke_decode + transfers_per_invoke * transfer_decode;
  g_sink = g_sink + sink;
}

}  // namespace

LayerTimings time_layers(const LayerInputs& in) {
  // Twelve timed loops share the budget.
  const double each = in.budget_s / 12.0;
  const std::vector<serial::BufferChain> bodies = request_bodies(in.mix);
  LayerTimings out;
  out.event_ns = time_event(in.mix, each);
  out.post_drain_ns = time_post_drain(in.mix, each);
  out.barrier_ns = time_barrier(in.mix, in.workers, each);
  out.barrier_1w_ns = time_barrier(in.mix, 1, each);
  out.send_deliver_ns = time_send_deliver(bodies, each);
  time_envelopes(bodies, each, out);
  const auto frame =
      static_cast<std::size_t>(std::lround(in.invokes_per_frame));
  if (in.mix.batched && frame >= 2) time_batches(bodies, frame, each, out);
  time_call_rtt(bodies, in.mix.batched ? std::max<std::size_t>(frame, 1) : 1,
                in.mix.batched, each, out);
  time_serial(in.mix, in.transfers_per_invoke, each, out);
  return out;
}

}  // namespace e2e
