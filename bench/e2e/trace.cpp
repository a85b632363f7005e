#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {
namespace {

std::atomic<std::uint64_t> g_generation{0};

// The calling thread's claimed buffer, tagged with the tracer generation
// that handed it out (a later tracer must not reuse a stale claim).
struct ThreadClaim {
  std::uint64_t generation = ~std::uint64_t{0};
  void* buffer = nullptr;
};
thread_local ThreadClaim t_claim;
thread_local Tracer::Scope* t_open = nullptr;

}  // namespace

const char* span_name(Span span) {
  switch (span) {
    case Span::RunUntil:
      return "run_until";
    case Span::Issue:
      return "issue";
    case Span::Service:
      return "service";
    case Span::Reply:
      return "reply";
    case Span::Complete:
      return "complete";
  }
  return "?";
}

Tracer::Tracer(std::size_t threads, std::size_t capacity)
    : buffers_(threads),
      generation_(g_generation.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {
  if (threads == 0 || threads >= kNoBuffer) {
    throw std::invalid_argument("tracer needs 1..65534 thread buffers");
  }
  for (Buffer& b : buffers_) b.records.resize(capacity);
  windows_.reserve(1 << 16);
}

Tracer::Buffer& Tracer::thread_buffer() {
  if (t_claim.generation != generation_) {
    const std::size_t index = claimed_.fetch_add(1);
    if (index >= buffers_.size()) {
      throw std::logic_error("more tracing threads than tracer buffers");
    }
    t_claim.generation = generation_;
    t_claim.buffer = &buffers_[index];
  }
  return *static_cast<Buffer*>(t_claim.buffer);
}

SpanTotals Tracer::totals(Span span) const {
  SpanTotals sum;
  for (const Buffer& b : buffers_) {
    const SpanTotals& t = b.totals[static_cast<std::size_t>(span)];
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

void Tracer::record_window(std::int64_t wall_ns) {
  if (windows_.size() < windows_.capacity()) windows_.push_back(wall_ns);
}

Tracer::Scope::Scope(Span span, std::uint32_t node, std::uint64_t seq) {
  Tracer* tracer = g_tracer;
  if (tracer == nullptr) return;
  tracer_ = tracer;
  buffer_ = &tracer->thread_buffer();
  parent_ = t_open;
  t_open = this;
  span_ = span;
  node_ = node;
  seq_ = seq;
  if (buffer_->used < buffer_->records.size()) {
    slot_ = static_cast<std::uint32_t>(buffer_->used++);
  } else {
    ++buffer_->dropped;
  }
  start_ns_ = tracer->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end_ns = tracer_->now_ns();
  const std::int64_t duration = end_ns - start_ns_;
  SpanTotals& totals = buffer_->totals[static_cast<std::size_t>(span_)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - child_ns_;
  t_open = parent_;
  if (slot_ == kNoSlot) {
    if (parent_ != nullptr) parent_->child_ns_ += duration;
    return;
  }
  Record& r = buffer_->records[slot_];
  r.start_ns = start_ns_;
  r.end_ns = end_ns;
  r.seq = seq_;
  r.node = node_;
  r.span = span_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += duration;
    if (parent_->slot_ != kNoSlot) {
      r.parent_buffer = static_cast<std::uint16_t>(
          parent_->buffer_ - tracer_->buffers_.data());
      r.parent_slot = parent_->slot_;
    }
  }
}

void Tracer::write_json(const std::string& path,
                        const std::string& label) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[320];
  std::int64_t dropped = 0;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    dropped += buffers_[b].dropped;
    for (std::size_t s = 0; s < buffers_[b].used; ++s) {
      const Record& r = buffers_[b].records[s];
      char parent[32] = "null";
      if (r.parent_buffer != kNoBuffer) {
        std::snprintf(parent, sizeof parent, "\"%u:%u\"",
                      static_cast<unsigned>(r.parent_buffer), r.parent_slot);
      }
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%zu:%zu\","
                    "\"parent\":%s,\"node\":%u,\"seq\":%llu}}",
                    first ? "" : ",", span_name(r.span), b,
                    static_cast<double>(r.start_ns) / 1e3,
                    static_cast<double>(r.end_ns - r.start_ns) / 1e3, b, s,
                    parent, r.node, static_cast<unsigned long long>(r.seq));
      out << line;
      first = false;
    }
  }
  out << "\n],\"otherData\":{\"label\":\"" << label
      << "\",\"dropped_spans\":" << dropped << ",\"totals\":{";
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const SpanTotals t = totals(static_cast<Span>(k));
    out << (k == 0 ? "" : ",") << "\"" << span_name(static_cast<Span>(k))
        << "\":{\"count\":" << t.count << ",\"total_ns\":" << t.total_ns
        << ",\"self_ns\":" << t.self_ns << "}";
  }
  out << "},\"window_wall_ns\":[";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    out << (i == 0 ? "" : ",") << windows_[i];
  }
  out << "]}}\n";
}

}  // namespace e2e
