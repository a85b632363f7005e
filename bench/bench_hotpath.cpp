// Hot-path benchmark: the RMI/simulation spine under load.
//
// Two workloads, measured in *wall-clock* time (not simulated time):
//
//   1. RMI storm — 100k echo calls with a 4 KB payload through the full
//      spine (EventQueue -> Network -> Transport -> serial), reporting
//      calls/sec, payload bytes deep-copied per call, and heap allocations
//      per send (counted via a replaced global operator new);
//   2. event churn — 1M schedule/pop cycles through the event queue,
//      reporting events/sec.
//
// Two contracts are asserted, not just measured: a steady-state call
// deep-copies ZERO payload bytes, and a steady-state send performs ZERO
// heap allocations (its envelope header is an inline serial::Buffer).
//
// Results are written to BENCH_hotpath.json next to the working directory so
// the perf trajectory of this spine is tracked across PRs.  The `baseline`
// block is the measurement taken on the pre-Buffer deep-copying spine
// (recorded once, from the same machine, at the commit that introduced this
// bench); `current` is re-measured on every run.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rmi/transport.hpp"
#include "sim/simulation.hpp"

namespace {

using mage::common::alloc_count;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct StormResult {
  double calls_per_sec = 0;
  double bytes_copied_per_call = 0;
  double allocations_per_send = 0;
};

constexpr int kCalls = 100'000;
constexpr std::size_t kPayloadBytes = 4096;
constexpr std::int64_t kChurnEvents = 1'000'000;

// Pre-optimisation spine, measured on the dev container at the commit that
// introduced this bench (deep-copying payload vectors,
// shared_ptr<std::function> events, std::map dispatch, un-cancellable retry
// timers).  The old spine had no copy-counter hook; per-call copy volume
// was ~8 payload copies (see docs/PERF.md).
constexpr double kBaselineCallsPerSec = 276285;
constexpr double kBaselineEventsPerSec = 11673676;

// Measured with a reply cache smaller than the call count, warmed past its
// capacity, so the whole measured loop runs in the long-run regime: entry
// ring wrapped and continuously evicting.  That is where the allocation
// budget must hold (the ring's one-time append-only fill is warm-up).
constexpr std::size_t kCacheCapacity = 1024;

StormResult run_rmi_storm() {
  using namespace mage;
  sim::Simulation sim(42);
  net::Network net(sim, net::CostModel::zero());
  const auto a = net.add_node("client");
  const auto b = net.add_node("server");
  rmi::Transport ta(net, a, kCacheCapacity);
  rmi::Transport tb(net, b, kCacheCapacity);

  const common::VerbId echo = common::intern_verb("echo");
  tb.register_service(echo,
                      [](common::NodeId, const serial::BufferChain& body,
                         rmi::Replier replier) { replier.ok(body); });

  const serial::Buffer payload(
      std::vector<std::uint8_t>(kPayloadBytes, 0x5A));

  // Warm up: connection setup, allocator, event pool, stats handles, and
  // 2x the reply-cache capacity so both entry rings have wrapped.
  for (std::size_t i = 0; i < 2 * kCacheCapacity; ++i) {
    (void)ta.call_sync(b, echo, payload);
  }

  serial::Buffer::reset_copy_counters();
  rmi::Envelope::reset_header_counters();
  const std::uint64_t allocs_before = alloc_count();
  const auto start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    (void)ta.call_sync(b, echo, payload);
  }
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc_count() - allocs_before;

  StormResult r;
  r.calls_per_sec = kCalls / elapsed;
  r.bytes_copied_per_call =
      static_cast<double>(serial::Buffer::deep_copy_bytes()) / kCalls;
  // Two sends per call round trip: request + reply.
  r.allocations_per_send = static_cast<double>(allocs) / (2.0 * kCalls);
  // The zero-copy contract: a steady-state RMI call must not deep-copy a
  // single payload byte anywhere in the spine.
  if (serial::Buffer::deep_copy_count() != 0) {
    std::cerr << "FAIL: " << serial::Buffer::deep_copy_count()
              << " payload deep-copies on the steady-state path\n";
    std::exit(1);
  }
  // The allocation contract: a steady-state send makes no heap
  // allocation (headers are inline; the payload travels by refcount).
  if (allocs != 0) {
    std::cerr << "FAIL: " << r.allocations_per_send
              << " allocations per steady-state send (budget: 0)\n";
    std::exit(1);
  }
  // The framing contract: every steady-state echo send (single-buffer
  // body, request and reply alike) must take the single-fragment fast
  // path — 2 fast headers per call, 0 list headers.
  if (rmi::Envelope::list_path_headers() != 0 ||
      rmi::Envelope::fast_path_headers() !=
          static_cast<std::uint64_t>(2 * kCalls)) {
    std::cerr << "FAIL: single-fragment fast path not engaged: "
              << rmi::Envelope::fast_path_headers() << " fast / "
              << rmi::Envelope::list_path_headers() << " list headers over "
              << kCalls << " calls (want " << 2 * kCalls << " / 0)\n";
    std::exit(1);
  }
  return r;
}

// A self-perpetuating timer: each firing reschedules itself, so the queue
// stays warm and every cycle is one schedule + one pop.  A plain functor,
// like the raw lambdas the transport/network layers schedule.
struct Tick {
  mage::sim::Simulation& sim;
  std::int64_t& remaining;
  void operator()() const {
    if (--remaining <= 0) return;
    sim.schedule_after(1, Tick{sim, remaining});
  }
};

double run_event_churn() {
  using namespace mage;
  sim::Simulation sim(7);

  std::int64_t remaining = kChurnEvents;
  const auto start = Clock::now();
  for (int i = 0; i < 64; ++i) sim.schedule_after(1, Tick{sim, remaining});
  sim.run_until_idle();
  const double elapsed = seconds_since(start);
  return static_cast<double>(kChurnEvents) / elapsed;
}

}  // namespace

int main() {
  const StormResult storm = run_rmi_storm();
  const double events_per_sec = run_event_churn();

  std::cout << "rmi storm:    " << static_cast<std::int64_t>(storm.calls_per_sec)
            << " calls/sec (" << kCalls << " calls, " << kPayloadBytes
            << " B payload)\n";
  std::cout << "              " << storm.bytes_copied_per_call
            << " payload bytes deep-copied per call\n";
  std::cout << "              " << storm.allocations_per_send
            << " heap allocations per send\n";
  std::cout << "event churn:  " << static_cast<std::int64_t>(events_per_sec)
            << " events/sec (" << kChurnEvents << " events)\n";
  std::cout << "speedup:      " << storm.calls_per_sec / kBaselineCallsPerSec
            << "x calls/sec, " << events_per_sec / kBaselineEventsPerSec
            << "x events/sec vs pre-optimisation baseline\n";

  std::ofstream json("BENCH_hotpath.json");
  json << "{\n"
       << "  \"bench\": \"hotpath\",\n"
       << "  \"calls\": " << kCalls << ",\n"
       << "  \"payload_bytes\": " << kPayloadBytes << ",\n"
       << "  \"churn_events\": " << kChurnEvents << ",\n"
       << "  \"baseline\": {\n"
       << "    \"calls_per_sec\": " << kBaselineCallsPerSec << ",\n"
       << "    \"events_per_sec\": " << kBaselineEventsPerSec << "\n"
       << "  },\n"
       << "  \"current\": {\n"
       << "    \"calls_per_sec\": " << storm.calls_per_sec << ",\n"
       << "    \"events_per_sec\": " << events_per_sec << ",\n"
       << "    \"payload_bytes_copied_per_call\": "
       << storm.bytes_copied_per_call << ",\n"
       << "    \"allocations_per_send\": " << storm.allocations_per_send
       << ",\n"
       << "    \"calls_speedup\": " << storm.calls_per_sec / kBaselineCallsPerSec
       << ",\n"
       << "    \"events_speedup\": " << events_per_sec / kBaselineEventsPerSec
       << "\n"
       << "  }\n"
       << "}\n";
  std::cout << "wrote BENCH_hotpath.json\n";
  return 0;
}
