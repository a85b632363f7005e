// Span tracer for the benchmark's own call sites.
//
// The benchmark wraps each call it makes into the system — the engine's
// run_until, each Transport::call or AsyncClient::invoke_raw issue, each
// service or method body it registered, each Replier::ok, each completion
// callback — in a Scope.  A span records name, start, end, parent (the
// innermost open span on the same thread) and a request id (caller node,
// sequence number).  Spans land in preallocated per-worker buffers: every
// thread claims its own buffer on first use, so recording takes no lock.
// A full buffer keeps aggregating (count, total, self time per span name)
// but stops storing individual records; self time is a span's duration
// minus the time its child spans cover.
//
// Tracing never runs inside src/: what happens between two spans (the
// receive path, the event queue, window barriers) shows up as the self
// time of the enclosing span — run_until on the engine's calling thread.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Span : std::uint8_t { RunUntil, Issue, Service, Reply, Complete };
inline constexpr std::size_t kSpanKinds = 5;
[[nodiscard]] const char* span_name(Span span);

struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  // One buffer of `capacity` records per thread that will record spans.
  Tracer(std::size_t threads, std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope;

  // Summed over every thread's buffer; read only after the traced run.
  [[nodiscard]] SpanTotals totals(Span span) const;

  // Window wall times, appended by the engine's boundary hook (which runs
  // on one thread at a time, inside the round barrier).
  void record_window(std::int64_t wall_ns);
  [[nodiscard]] const std::vector<std::int64_t>& windows() const {
    return windows_;
  }

  // Chrome trace-event JSON (chrome://tracing, Perfetto) of every stored
  // span, with the per-name totals and window times under "otherData".
  void write_json(const std::string& path, const std::string& label) const;

 private:
  struct Record {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t seq = 0;
    std::uint32_t node = 0;
    std::uint32_t parent_slot = 0;
    std::uint16_t parent_buffer = kNoBuffer;
    Span span = Span::RunUntil;
  };

  struct alignas(64) Buffer {
    std::vector<Record> records;
    std::size_t used = 0;
    std::int64_t dropped = 0;
    std::array<SpanTotals, kSpanKinds> totals{};
  };

  static constexpr std::uint16_t kNoBuffer = 0xFFFF;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  // The calling thread's buffer, claimed on its first span.
  Buffer& thread_buffer();

  std::vector<Buffer> buffers_;
  std::atomic<std::size_t> claimed_{0};
  const std::uint64_t generation_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::int64_t> windows_;
};

// The tracer Scopes record into; null when tracing is off, so an untraced
// run pays one predictable branch per call site.  Set and cleared only
// while no engine worker runs.
inline Tracer* g_tracer = nullptr;

class Tracer::Scope {
 public:
  Scope(Span span, std::uint32_t node, std::uint64_t seq);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // For spans whose request id is known only after they open (a service
  // learns the sequence number by decoding the body).
  void set_request(std::uint32_t node, std::uint64_t seq) {
    node_ = node;
    seq_ = seq;
  }

 private:
  Tracer* tracer_ = nullptr;
  Buffer* buffer_ = nullptr;
  Scope* parent_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;
  std::uint64_t seq_ = 0;
  std::uint32_t node_ = 0;
  std::uint32_t slot_ = kNoSlot;
  Span span_ = Span::RunUntil;
};

using TraceScope = Tracer::Scope;

}  // namespace e2e
