// bench_e2e — the repository's end-to-end benchmark (run it through run.py).
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--trace-dir DIR]
//
// Untraced (--trace 0): one warm-up round at 1 worker and one at W workers
// (W = min(4, hardware threads)), then measured round pairs
// (1 worker, W workers) until S seconds have passed, each round followed by
// the calibration kernel on as many threads.  Every round builds a fresh
// federation from the seed.  Reports per measured round the throughput in
// ops/s and in ops per kernel time, the kernel time and the set-up time;
// peak RSS after the first round; the sim-time latency percentiles and the
// failure share.
//
// Traced (--trace 1): a warm-up round, five pairs of an untraced and a
// traced round at 1 worker, each followed by the calibration kernel (their
// scores' ratio is the tracing overhead), a traced round at W workers
// (window wall times), then isolated layer timings for the remaining
// budget.  Reports the per-layer metrics and writes the last
// 1-worker spans to DIR/e2e_trace_<workload>.json.
//
// Every round is checked: the workload's own invariants (exactly-once,
// per-link FIFO, echoed replies), zero eviction-caused re-executions, and
// per-node digests, latency histograms and engine counters identical to
// the first round's at every worker count.
//
// Output: one JSON object on stdout,
//   {"workload", "seed", "workers", "correct", "errors", "attempted",
//    "failed", "metrics": {name: {"unit", "value", "samples": [...]}}}
// where samples are per round and value is the run's figure: the median of
// the samples, or for throughput the run-integrated rate.
// Exit status: 0 correct, 1 a check failed, 2 bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR]\n",
               problem.c_str());
  std::exit(2);
}

double parse_number(const char* flag, const char* text, double lo, double hi) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= lo && v <= hi)) {
    usage(std::string("bad value '") + text + "' for " + flag);
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(
          parse_number("--seed", value, 0, 9.0e15));
    } else if (flag == "--seconds") {
      args.seconds = parse_number("--seconds", value, 0, 3600);
    } else if (flag == "--trace") {
      args.trace = parse_number("--trace", value, 0, 1) != 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    std::string names;
    for (const auto& n : workload_names()) names += " " + n;
    usage("--workload must be one of:" + names);
  }
  return args;
}

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Machine-speed probe, run right after every measured round.
//
// On a shared machine a round's wall time swings by tens of percent with
// the load of other tenants, in bursts that last seconds, so the median
// raw throughput of one run differs from the next by more than any useful
// bound.  After each measured round the same number of threads runs this
// fixed kernel, and the round is scored in ops per kernel time ("ops/cal").
// The kernel does the engine's kind of work without the library — binary
// heap churn keyed by random reads of a 4 MB table — so a burst slows the
// round and the kernel alike and the score cancels it.  A change to the
// library moves the score and leaves the kernel alone.
class Calibration {
 public:
  Calibration() : table_(kTableWords) {
    std::uint64_t x = 1;
    for (std::uint64_t& word : table_) word = x = next(x);
  }

  // Wall seconds for `threads` threads to run the kernel once each.
  [[nodiscard]] double run(int threads) const {
    const auto start = Clock::now();
    {
      std::vector<std::jthread> pool;
      for (int t = 1; t < threads; ++t) pool.emplace_back([this] { kernel(); });
      kernel();
    }
    return elapsed_s(start);
  }

 private:
  static constexpr std::size_t kTableWords = std::size_t{1} << 19;
  static constexpr std::size_t kHeapEntries = 2048;
  static constexpr int kSteps = 200'000;

  static std::uint64_t next(std::uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
  }

  void kernel() const {
    std::vector<std::uint64_t> heap(kHeapEntries);
    std::uint64_t x = 1;
    for (std::uint64_t& key : heap) key = (x = next(x)) >> 24;
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    std::uint64_t sum = 0;
    for (int i = 0; i < kSteps; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      x = next(x);
      const std::uint64_t word = table_[(x >> 40) % kTableWords];
      sum += word;
      heap.back() += 1 + (word & 0xFFFF);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    sink_.fetch_add(sum, std::memory_order_relaxed);
  }

  std::vector<std::uint64_t> table_;
  // Keeps the kernel's result observable so it is not optimized away.
  mutable std::atomic<std::uint64_t> sink_{0};
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Exact quantile of a sample vector (rank ceil(q * n)).
double quantile(std::vector<std::int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[rank == 0 ? 0 : rank - 1]);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

// A run's value for a metric, and the per-round samples it came from.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void add(std::string name, std::string unit, double value,
           std::vector<double> samples) {
    metrics.push_back(
        {std::move(name), std::move(unit), value, std::move(samples)});
  }
  // The median of the rounds.
  void add(std::string name, std::string unit, std::vector<double> samples) {
    const double value = median(samples);
    add(std::move(name), std::move(unit), value, std::move(samples));
  }
  void add(std::string name, std::string unit, double value) {
    add(std::move(name), std::move(unit), value, std::vector<double>{value});
  }
};

// Runs one round, reports its violations and any divergence from the
// reference round (the first one run for this seed).
Round checked_round(const Workload& workload, std::uint64_t seed, int workers,
                    bool trace_windows, const Round* reference,
                    const char* label, Report& report) {
  Round round = run_round(workload, seed, workers, trace_windows);
  std::fprintf(stderr,
               "%s %s w%d: setup %.4f s, run %.3f s, %.0f ops/s, %lld "
               "windows\n",
               workload.name, label, workers, round.setup_s, round.run_s,
               static_cast<double>(round.ops) / round.run_s,
               static_cast<long long>(round.windows));
  const std::string where =
      std::string(label) + " round at " + std::to_string(workers) + " workers";
  for (const std::string& e : round.errors) {
    report.errors.push_back(where + ": " + e);
  }
  if (round.counters["rmi.evicted_reexecutions"] != 0) {
    report.errors.push_back(where + ": reply-cache evictions re-executed " +
                            std::to_string(round.counters["rmi.evicted_reexecutions"]) +
                            " requests");
  }
  if (reference != nullptr) {
    if (round.digests != reference->digests) {
      report.errors.push_back(where + ": per-node digests differ from the "
                                      "first round's");
    }
    if (!(round.latency == reference->latency)) {
      report.errors.push_back(where + ": latency histogram differs from the "
                                      "first round's");
    }
    for (const auto& [key, value] : round.counters) {
      const auto it = reference->counters.find(key);
      if (it == reference->counters.end() || it->second != value) {
        report.errors.push_back(where + ": counter " + key + " = " +
                                std::to_string(value) + " differs from the "
                                "first round's");
      }
    }
  }
  return round;
}

void add_latencies(const Round& round, Report& report) {
  const LatencyHistogram& h = round.latency;
  report.add("latency_p50_us", "sim_us", static_cast<double>(h.quantile(0.50)));
  report.add("latency_p99_us", "sim_us", static_cast<double>(h.quantile(0.99)));
  report.add("latency_p999_us", "sim_us",
             static_cast<double>(h.quantile(0.999)));
  report.add("latency_samples", "count", static_cast<double>(h.count()));
  report.add("latency_p999_tail", "count",
             static_cast<double>(h.tail_samples(0.999)));
}

void run_timed(const Workload& workload, const Args& args, int wide,
               Report& report) {
  const Round reference =
      checked_round(workload, args.seed, 1, false, nullptr, "warm-up", report);
  // Read after the first round: one federation's footprint from a fresh
  // heap.  (Multi-worker rounds add per-thread malloc arenas whose growth
  // depends on thread timing.)
  const double rss_mb = peak_rss_mb();
  (void)checked_round(workload, args.seed, wide, false, &reference, "warm-up",
                      report);
  const Calibration calibration;
  (void)calibration.run(wide);

  // Per round: ops/s, kernel seconds right after the round, and their
  // product (ops per kernel time); and totals over the run.
  struct Series {
    std::vector<double> rate;
    std::vector<double> cal_s;
    std::vector<double> score;
    double ops = 0;
    double run_s = 0;
  };
  Series narrow;
  Series wider;
  std::vector<double> setup;
  const auto start = Clock::now();
  do {
    for (const int workers : {1, wide}) {
      const Round round = checked_round(workload, args.seed, workers, false,
                                        &reference, "measured", report);
      const double rate = static_cast<double>(round.ops) / round.run_s;
      const double cal_s = calibration.run(workers);
      Series& series = workers == 1 ? narrow : wider;
      series.rate.push_back(rate);
      series.cal_s.push_back(cal_s);
      series.score.push_back(rate * cal_s);
      series.ops += static_cast<double>(round.ops);
      series.run_s += round.run_s;
      setup.push_back(round.setup_s);
      report.attempted += round.ops;
      report.failed += round.failed;
    }
  } while (elapsed_s(start) < args.seconds);

  // Throughput is integrated over the run: all ops over all round time,
  // against the mean kernel time.  (A median of per-round scores comes out
  // low under bursty load: a short kernel run mostly lands between bursts
  // while a round absorbs them.)
  for (const auto& [label, series] :
       {std::pair<const char*, const Series&>{"w1", narrow},
        std::pair<const char*, const Series&>{"w4", wider}}) {
    const std::string suffix = std::string(".") + label;
    const double rate = series.ops / series.run_s;
    const double cal_s = mean(series.cal_s);
    report.add("ops_per_cal" + suffix, "ops/cal", rate * cal_s, series.score);
    report.add("ops_per_s" + suffix, "ops/s", rate, series.rate);
    report.add("cal_s" + suffix, "s", cal_s, series.cal_s);
  }
  report.add("setup_s", "s", setup);
  report.add("peak_rss_mb", "MB", rss_mb);
  add_latencies(reference, report);
  report.add("error_rate", "ratio",
             ratio(static_cast<double>(report.failed),
                   static_cast<double>(report.attempted)));
}

void run_traced(const Workload& workload, const Args& args, int wide,
                Report& report) {
  const auto start = Clock::now();
  const bool mesh = workload.kind != Kind::Mobile;
  const Round reference =
      checked_round(workload, args.seed, 1, false, nullptr, "warm-up", report);

  // Untraced and traced 1-worker rounds alternate, each followed by the
  // calibration kernel; the tracing overhead (from the rounds' scores) and
  // the untraced wall time per op are medians over the pairs.  The spans
  // of the last traced round are kept.
  constexpr int kPairs = 5;
  constexpr std::size_t kSpansPerThread = 16'384;
  const Calibration calibration;
  (void)calibration.run(1);
  std::unique_ptr<Tracer> narrow_tracer;
  std::vector<double> overhead;
  std::vector<double> plain_run_s;
  for (int pair = 0; pair < kPairs; ++pair) {
    const Round plain = checked_round(workload, args.seed, 1, false,
                                      &reference, "untraced", report);
    const double plain_cal_s = calibration.run(1);
    narrow_tracer = std::make_unique<Tracer>(2, kSpansPerThread);
    g_tracer = narrow_tracer.get();
    const Round traced = checked_round(workload, args.seed, 1, mesh,
                                       &reference, "traced", report);
    g_tracer = nullptr;
    const double traced_cal_s = calibration.run(1);
    overhead.push_back(1.0 - (plain.run_s * traced_cal_s) /
                                 (traced.run_s * plain_cal_s));
    plain_run_s.push_back(plain.run_s);
    report.attempted += plain.ops + traced.ops;
    report.failed += plain.failed + traced.failed;
  }
  Tracer wide_tracer(static_cast<std::size_t>(wide) + 1, kSpansPerThread);
  g_tracer = &wide_tracer;
  (void)checked_round(workload, args.seed, wide, mesh, &reference, "traced",
                      report);
  g_tracer = nullptr;
  const std::string trace_path =
      args.trace_dir + "/e2e_trace_" + workload.name + ".json";
  narrow_tracer->write_json(trace_path, std::string(workload.name) + " w1");
  std::fprintf(stderr, "%s: spans written to %s\n", workload.name,
               trace_path.c_str());

  const auto& c = reference.counters;
  const auto count = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(reference.ops);
  const double msgs = count("net.messages_sent");

  LayerInputs inputs;
  inputs.mix = message_mix(workload);
  inputs.workers = wide;
  inputs.budget_s = std::max(1.0, args.seconds - elapsed_s(start));
  inputs.invokes_per_frame =
      ratio(count("rmi.batched_invokes"), count("rmi.batches_sent"));
  inputs.transfers_per_invoke = ratio(count("rts.migrations"), ops);
  const LayerTimings layers = time_layers(inputs);

  // sim
  report.add("sim.windows", "count", static_cast<double>(reference.windows));
  report.add("sim.ops_per_window", "ops",
             ratio(ops, static_cast<double>(reference.windows)));
  std::vector<std::int64_t> window_ns = wide_tracer.windows();
  report.add("sim.window_wall_us.p50", "us", quantile(window_ns, 0.50) / 1e3);
  report.add("sim.window_wall_us.p99", "us", quantile(window_ns, 0.99) / 1e3);
  report.add("sim.barrier_ns", "ns", layers.barrier_ns);
  report.add("sim.event_ns", "ns", layers.event_ns);
  report.add("sim.post_drain_ns", "ns", layers.post_drain_ns);
  // net
  report.add("net.msgs_per_op", "msgs/op", ratio(msgs, ops));
  report.add("net.bytes_per_op", "B/op", ratio(count("net.bytes_sent"), ops));
  report.add("net.connections_opened", "count",
             count("net.connections_opened"));
  report.add("net.send_deliver_ns", "ns", layers.send_deliver_ns);
  report.add("net.drop_ratio", "ratio",
             ratio(count("net.messages_dropped"), msgs));
  // rmi
  report.add("rmi.envelope_encode_ns", "ns", layers.envelope_encode_ns);
  report.add("rmi.envelope_decode_ns", "ns", layers.envelope_decode_ns);
  report.add("rmi.batch_encode_ns", "ns", layers.batch_encode_ns);
  report.add("rmi.batch_decode_ns", "ns", layers.batch_decode_ns);
  report.add("rmi.invokes_per_frame", "env/frame", inputs.invokes_per_frame);
  report.add("rmi.call_rtt_ns", "ns", layers.call_rtt_ns);
  const double transport_self =
      layers.call_rtt_ns - layers.msgs_per_call * layers.send_deliver_ns -
      (layers.events_per_call - layers.msgs_per_call) * layers.event_ns;
  report.add("rmi.transport_self_ns", "ns", transport_self);
  const SpanTotals issue = narrow_tracer->totals(Span::Issue);
  const double issue_ns = ratio(static_cast<double>(issue.total_ns),
                                static_cast<double>(issue.count));
  report.add("rmi.issue_ns", "ns", mesh ? issue_ns : 0.0);
  report.add("rmi.evictions_per_op", "1/op",
             ratio(count("rmi.reply_cache_evictions"), ops));
  report.add("rmi.reply_cache_highwater", "entries",
             ratio(count("rmi.reply_cache_capacity_highwater"),
                   static_cast<double>(reference.shards)));
  report.add("rmi.retransmissions_per_op", "1/op",
             ratio(count("rmi.retransmissions"), ops));
  report.add("rmi.duplicates_suppressed", "count",
             count("rmi.duplicates_suppressed"));
  report.add("rmi.useful_ratio", "ratio",
             ratio(count("rmi.calls") - count("rmi.failures") -
                       count("rmi.cancelled_calls"),
                   count("rmi.calls") + count("rmi.retransmissions")));
  report.add("rmi.evicted_reexecutions", "count",
             count("rmi.evicted_reexecutions"));
  // serial
  report.add("serial.encode_ns", "ns", layers.serial_encode_ns);
  report.add("serial.decode_ns", "ns", layers.serial_decode_ns);
  report.add("serial.bytes_copied_per_op", "B/op",
             ratio(static_cast<double>(reference.deep_copy_bytes), ops));
  // rts
  report.add("rts.invoke_issue_ns", "ns", mesh ? 0.0 : issue_ns);
  report.add("rts.redirects_per_invoke", "1/op",
             mesh ? 0.0 : ratio(count("rts.async_redirects"), ops));
  report.add("rts.relocates_per_invoke", "1/op",
             mesh ? 0.0 : ratio(count("rts.async_relocates"), ops));
  report.add("rts.stale_hints_rejected", "count",
             count("rts.stale_hints_rejected"));
  report.add("rts.migrations", "count", count("rts.migrations"));
  report.add("rts.move_latency_us.p50", "sim_us",
             quantile(reference.move_latency_us, 0.50));
  // Shares of the 1-worker traced round, and what the isolated timings
  // explain of the untraced round's wall time per op.
  const SpanTotals run = narrow_tracer->totals(Span::RunUntil);
  const double app_self =
      static_cast<double>(narrow_tracer->totals(Span::Service).self_ns +
                          narrow_tracer->totals(Span::Complete).self_ns);
  report.add("app.self_share", "ratio",
             ratio(app_self, static_cast<double>(run.total_ns)));
  report.add("sim.self_share", "ratio",
             ratio(static_cast<double>(run.self_ns),
                   static_cast<double>(run.total_ns)));
  const double attributed_ns =
      ratio(count("rmi.calls"), ops) * layers.call_rtt_ns +
      layers.serial_encode_ns + layers.serial_decode_ns +
      ratio(msgs, ops) * reference.cross_shard_share * layers.post_drain_ns +
      ratio(static_cast<double>(reference.windows), ops) *
          layers.barrier_1w_ns;
  const double wall_ns_per_op = median(plain_run_s) * 1e9 / ops;
  report.add("attributed_share", "ratio", attributed_ns / wall_ns_per_op);
  report.add("trace.overhead", "ratio", median(overhead));
  add_latencies(reference, report);
  report.add("error_rate", "ratio",
             ratio(static_cast<double>(reference.failed), ops));
  report.attempted += reference.ops;
  report.failed += reference.failed;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", ch);
      out += esc;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char number[40];
  std::snprintf(number, sizeof number, "%.17g", std::isfinite(v) ? v : 0.0);
  return number;
}

void print_json(const Args& args, int wide, const Report& report) {
  std::string out = "{\"workload\":" + json_string(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"workers\":[1," + std::to_string(wide) + "]" +
                    ",\"correct\":" + (report.errors.empty() ? "true" : "false") +
                    ",\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i != 0) out += ',';
    out += json_string(report.errors[i]);
  }
  out += "],\"attempted\":" + std::to_string(report.attempted) +
         ",\"failed\":" + std::to_string(report.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i != 0) out += ',';
    out += json_string(m.name);
    out += ":{\"unit\":";
    out += json_string(m.unit);
    out += ",\"value\":";
    out += json_number(m.value);
    out += ",\"samples\":[";
    for (std::size_t k = 0; k < m.samples.size(); ++k) {
      if (k != 0) out += ',';
      out += json_number(m.samples[k]);
    }
    out += "]}";
  }
  std::printf("%s}}\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload& workload = *find_workload(args.workload);
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int wide = std::min(4, hardware);
  Report report;
  try {
    if (args.trace) {
      run_traced(workload, args, wide, report);
    } else {
      run_timed(workload, args, wide, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", workload.name, e.what());
    return 1;
  }
  print_json(args, wide, report);
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "FAIL: %s: %s\n", workload.name, e.c_str());
  }
  return report.errors.empty() ? 0 : 1;
}
