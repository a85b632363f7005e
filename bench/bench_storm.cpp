// bench_storm: the storm scenarios, run by one runner at 1 and T workers,
// recorded in one record shape.
//
//   usage: bench_storm [N] [--threads T] [--chaos] [--glb] [--wan]
//
// Every scenario is the all-to-all echo storm of storm::run_storm
// (bench/support/storm_harness.hpp): one windowed pipeline of echo calls
// per directed link, each completion launching the link's next call, so
// every link stays saturated while pending tables and event queues stay
// bounded.  The scenarios (N nodes, default 16):
//
//   storm   500 calls per link, 8 in flight, a 512-entry reply cache that
//           each node's (N-1) x 500 inbound calls must wrap: at-most-once
//           under eviction, per-link FIFO under N-1 interleaved senders.
//           On the identity mapping, with one sim::Simulation as control.
//   batch   the storm with per-link batching (flush quantum = the
//           lookahead) and the adaptive reply cache, 32 calls in flight.
//   chaos   (--chaos, N >= 4) the storm under a fixed fault schedule —
//           two loss bursts, a partition/heal, rolling crashes of nodes
//           0-2 — with an adequately sized reply cache, a 30 ms retry
//           timeout, a director quorum on nodes 0-2 and a resolver on
//           node 3.  Each entry applies at its exact time on every shard.
//   wan64   (--wan) 8 sites of 8 nodes, all-to-all inside a site, site
//   wan128  leaders linked across 20 ms WAN hops (8 sites of 16 nodes for
//           wan128); on the affinity mapping (one site per shard), with
//           the identity mapping as wan64's control.
//
// Each scenario runs its first layout at 1 and T workers (T = --threads,
// default 1) — wan64 at every count of the ladder 1, 2, 4, ..., T, its
// speedup curve — once per distinct effective count (workers above the
// layout's shard count add nothing), and each control layout once, at
// min(T, hardware threads) workers.  --glb adds the lifeline GLB workload
// (bench/support/glb_harness.hpp: unbalanced tree expansion over a
// migrating DistMap under loss + partition chaos) per seed at 1 and T
// workers.  --chaos, --glb and --wan need --threads.
//
// Exits 1 when a run breaks its scenario's contract: a call unanswered or
// failed, a request not executed exactly once, a wire-FIFO violation or an
// eviction-caused re-execution; out-of-order executions on a fault-free
// scenario; a reply cache smaller than a node's inbound calls that never
// evicted; an adaptive cache that never grew or evicted >= 1% of calls;
// batching that coalesced < 2 invokes per frame; a fault schedule not
// fully applied or a faulty run without scheduled drops and
// retransmissions; a quorum with < 2 elections, no client failover, no
// resolve served or none that succeeded.  It also exits 1 unless every
// run of a scenario — every layout, every worker count — has the same
// per-node digests, and (after writing the record) unless every GLB seed
// drained exactly-once, deterministically, with a migration.
//
// Results go to BENCH_storm.json: a `scenarios` array with one record per
// scenario, each carrying one record per run, plus the `glb` block;
// ci/check_storm_scaling.py checks it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/glb_harness.hpp"
#include "support/storm_harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using mage::storm::Layout;
using mage::storm::Record;
using mage::storm::Scenario;
using mage::storm::identity;

// The fixed degraded-mode program over nodes 1-4 (0-based 0-3): two loss
// bursts, a partition/heal of the (0, 1) link, and rolling crashes that
// take down every director (nodes 0-2) once, one at a time, so the quorum
// can always re-form and the sitting leader is sure to die.  The 30 ms x
// 64 retry budget rides out every outage.
mage::net::FaultSchedule chaos_schedule() {
  using mage::common::NodeId;
  mage::net::FaultSchedule s;
  s.crash_for(5'000, NodeId{1}, 6'000);
  s.loss_burst(5'000, 0.10, 10'000);
  s.partition_for(8'000, NodeId{1}, NodeId{2}, 20'000);
  s.crash_for(20'000, NodeId{3}, 15'000);
  s.crash_for(37'000, NodeId{2}, 6'000);
  s.loss_burst(40'000, 0.20, 10'000);
  return s;
}

struct Entry {
  std::string name;
  Scenario scenario;
  std::vector<Layout> layouts;  // the first runs the ladder; the rest: controls
  bool every_rung = false;  // the whole ladder, not just 1 and T workers
};

std::vector<Entry> scenarios(int n, bool chaos, bool wan) {
  std::vector<Entry> out;
  Scenario storm;
  storm.nodes = n;
  storm.reply_cache_capacity = 512;  // (N-1) x 500 inbound calls wrap it
  out.push_back({"storm", storm, {identity(storm), Layout{}}});

  Scenario batch = storm;
  batch.flush_quantum_us = mage::net::Network::min_link_latency(batch.model);
  batch.adaptive_cache = true;
  batch.window = 32;  // a window's worth of invokes rides one frame
  out.push_back({"batch", batch, {identity(batch)}});

  if (chaos) {
    Scenario c = storm;
    // Adequately sized: every retransmission finds its cached reply.
    c.reply_cache_capacity = mage::rmi::Transport::kReplyCacheCapacity;
    c.call_options = mage::rmi::CallOptions{/*retry_timeout_us=*/30'000,
                                            /*max_attempts=*/64};
    c.faults = chaos_schedule();
    c.directors = 3;
    out.push_back({"chaos", c, {identity(c)}});
  }
  if (wan) {
    Scenario w;
    w.model = mage::net::CostModel::wan_site();
    w.nodes = 64;
    w.sites = 8;
    w.site_hop_us = 20'000;
    w.calls_per_link = 200;
    w.gateway_calls = 100;
    out.push_back({"wan64", w, {Layout{8, /*affinity=*/true}, identity(w)},
                   /*every_rung=*/true});
    w.nodes = 128;  // double the per-shard work
    w.calls_per_link = 50;
    w.gateway_calls = 50;
    out.push_back({"wan128", w, {Layout{8, /*affinity=*/true}}});
  }
  return out;
}

// The bench runs three layouts: one Simulation, identity(s) and affinity.
std::string layout_name(Layout layout) {
  if (layout.shards == 0) return "simulation";
  return layout.affinity ? "affinity" : "identity";
}

// The most calls any one node receives.
std::int64_t max_inbound(const Scenario& s) {
  std::vector<std::int64_t> inbound(static_cast<std::size_t>(s.nodes), 0);
  for (const mage::storm::Link& l : mage::storm::links(s)) {
    inbound[static_cast<std::size_t>(l.dst)] += l.calls;
  }
  return *std::max_element(inbound.begin(), inbound.end());
}

// The first way run `r` broke scenario `s`'s contract; empty if it held.
std::string violation(const Scenario& s, const Record& r) {
  std::ostringstream why;
  if (!r.completed) {
    why << "drained before every call was answered";
  } else if (r.failed_calls != 0) {
    why << r.failed_calls << " calls failed";
  } else if (!r.every_invoke_exactly_once()) {
    why << "some request did not execute exactly once";
  } else if (r.fifo_violations != 0) {
    why << r.fifo_violations << " wire-FIFO violations";
  } else if (r.evicted_reexecutions != 0) {
    why << r.evicted_reexecutions << " eviction-caused re-executions";
  } else if (s.faults.empty() && r.order_violations != 0) {
    why << r.order_violations << " per-link ordering violations";
  } else if (!s.adaptive_cache &&
             max_inbound(s) >
                 static_cast<std::int64_t>(s.reply_cache_capacity) &&
             r.reply_cache_evictions == 0) {
    why << "reply-cache ring never evicted";
  } else if (s.adaptive_cache && r.reply_cache_grows == 0) {
    why << "adaptive reply cache never grew from the "
        << s.reply_cache_capacity << "-entry floor";
  } else if (s.adaptive_cache && r.reply_cache_evictions * 100 >= r.calls) {
    why << r.reply_cache_evictions << " evictions on " << r.calls
        << " calls (>= 1%) despite adaptive sizing";
  } else if (s.flush_quantum_us > 0 &&
             (r.batches_sent == 0 ||
              r.batched_invokes < 2 * r.batches_sent)) {
    why << "batching never coalesced (batches=" << r.batches_sent
        << ", batched invokes=" << r.batched_invokes << ")";
  } else if (!s.faults.empty() &&
             (r.faults_applied < static_cast<std::int64_t>(s.faults.size()) ||
              r.messages_dropped_by_schedule == 0 ||
              r.retransmissions == 0)) {
    why << "not chaotic (faults applied=" << r.faults_applied << " of "
        << s.faults.size() << ", scheduled drops="
        << r.messages_dropped_by_schedule
        << ", retransmissions=" << r.retransmissions << ")";
  } else if (s.directors > 0 &&
             (r.elections_held < 2 || r.directory_failovers < 1 ||
              r.directory_resolves < 1 || r.resolutions == 0)) {
    why << "control plane did not fail over (elections=" << r.elections_held
        << ", directory failovers=" << r.directory_failovers
        << ", resolves served=" << r.directory_resolves
        << ", resolved=" << r.resolutions << ")";
  }
  return why.str();
}

struct Run {
  Layout layout;
  Record record;
  bool oversubscribed = false;
};

struct Result {
  Entry entry;
  std::vector<Run> runs;
};

int parse_positive(const char* what, const char* arg) {
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || v < 1 || v > 1'000'000) {
    std::cerr << "bench_storm: bad " << what << " '" << arg
              << "'\nusage: bench_storm [N] [--threads T] [--chaos] [--glb] "
                 "[--wan]\n";
    std::exit(2);
  }
  return static_cast<int>(v);
}

void write_run(std::ostream& json, const Run& run) {
  const Record& r = run.record;
  std::ostringstream digest;
  digest << "0x" << std::hex << std::setw(16) << std::setfill('0')
         << r.digest();
  json << "        {\n"
       << "          \"layout\": \"" << layout_name(run.layout) << "\",\n"
       << "          \"shards\": " << run.layout.shards << ",\n"
       << "          \"workers\": " << r.workers << ",\n"
       << "          \"oversubscribed\": "
       << (run.oversubscribed ? "true" : "false") << ",\n"
       << "          \"completed\": " << (r.completed ? "true" : "false")
       << ",\n"
       << "          \"exactly_once\": "
       << (r.every_invoke_exactly_once() ? "true" : "false") << ",\n"
       << "          \"digest\": \"" << digest.str() << "\",\n"
       << "          \"wall_sec\": " << r.wall_sec << ",\n"
       << "          \"calls_per_sec\": " << r.calls_per_sec << ",\n"
       << "          \"windows\": " << r.windows << ",\n"
       << "          \"failed_calls\": " << r.failed_calls << ",\n"
       << "          \"order_violations\": " << r.order_violations << ",\n"
       << "          \"pending_fault_events\": " << r.pending_fault_events
       << ",\n"
       << "          \"resolutions\": " << r.resolutions << ",\n"
       << "          \"reply_cache_capacity_sum\": "
       << r.reply_cache_capacity_sum << ",\n"
       << "          \"counters\": {\n";
  const std::size_t n = std::size(mage::storm::kCounters);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [key, field] = mage::storm::kCounters[i];
    json << "            \"" << key << "\": " << r.*field
         << (i + 1 < n ? ",\n" : "\n");
  }
  json << "          }\n        }";
}

void write_scenario(std::ostream& json, const Result& res) {
  const Scenario& s = res.entry.scenario;
  json << "    {\n"
       << "      \"name\": \"" << res.entry.name << "\",\n"
       << "      \"ladder_layout\": \""
       << layout_name(res.entry.layouts.front()) << "\",\n"
       << "      \"nodes\": " << s.nodes << ",\n"
       << "      \"sites\": " << s.sites << ",\n"
       << "      \"gateways\": " << s.gateways << ",\n"
       << "      \"site_hop_us\": " << s.site_hop_us << ",\n"
       << "      \"calls_per_link\": " << s.calls_per_link << ",\n"
       << "      \"gateway_calls\": " << s.gateway_calls << ",\n"
       << "      \"window\": " << s.window << ",\n"
       << "      \"reply_cache_capacity\": " << s.reply_cache_capacity << ",\n"
       << "      \"adaptive_cache\": " << (s.adaptive_cache ? "true" : "false")
       << ",\n"
       << "      \"flush_quantum_us\": " << s.flush_quantum_us << ",\n"
       << "      \"oneway_notes\": " << (s.oneway_notes ? "true" : "false")
       << ",\n"
       << "      \"fault_entries\": " << s.faults.size() << ",\n"
       << "      \"directors\": " << s.directors << ",\n"
       << "      \"calls\": " << res.runs.front().record.calls << ",\n"
       << "      \"runs\": [\n";
  for (std::size_t i = 0; i < res.runs.size(); ++i) {
    write_run(json, res.runs[i]);
    json << (i + 1 < res.runs.size() ? ",\n" : "\n");
  }
  json << "      ]\n    }";
}

}  // namespace

int main(int argc, char** argv) {
  int n = 16;
  int threads = 0;
  bool chaos = false;
  bool glb = false;
  bool wan = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "bench_storm: --threads needs a value\n";
        return 2;
      }
      threads = parse_positive("thread count", argv[++i]);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--glb") == 0) {
      glb = true;
    } else if (std::strcmp(argv[i], "--wan") == 0) {
      wan = true;
    } else {
      n = parse_positive("node count", argv[i]);
    }
  }
  if ((chaos || glb || wan) && threads == 0) {
    std::cerr << "bench_storm: "
              << (chaos ? "--chaos" : glb ? "--glb" : "--wan")
              << " needs --threads (it compares 1 and T workers)\n";
    return 2;
  }
  if (chaos && n < 4) {
    std::cerr << "bench_storm: --chaos needs >= 4 nodes (the schedule "
                 "crashes three directors and a resolver runs on a fourth)\n";
    return 2;
  }
  if (n < 2) {
    std::cerr << "bench_storm: the storm needs >= 2 nodes\n";
    return 2;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const int top = std::max(threads, 1);
  std::vector<int> ladder;
  for (int w = 1; w < top; w *= 2) ladder.push_back(w);
  ladder.push_back(top);
  const std::vector<int> ends{1, top};

  const int control = hw != 0 ? std::min(top, static_cast<int>(hw)) : top;

  std::vector<Result> results;
  for (Entry& entry : scenarios(n, chaos, wan)) {
    Result& res = results.emplace_back(Result{std::move(entry), {}});
    const Scenario& s = res.entry.scenario;
    for (const Layout& layout : res.entry.layouts) {
      const bool on_ladder = &layout == &res.entry.layouts.front();
      const std::vector<int> counts =
          !on_ladder ? std::vector<int>{control}
                     : (res.entry.every_rung ? ladder : ends);
      int last = 0;
      for (const int w : counts) {
        const int workers =
            layout.shards == 0 ? 1
                               : std::min(w, static_cast<int>(layout.shards));
        if (workers == last) continue;
        last = workers;
        Run run{layout, mage::storm::run_storm(s, layout, workers),
                hw != 0 && static_cast<unsigned>(workers) > hw};
        const Record& r = run.record;
        const std::string tag = res.entry.name + " " + layout_name(layout) +
                                " x " + std::to_string(r.workers);
        std::cout << tag << (run.oversubscribed ? " (oversubscribed)" : "")
                  << ": " << static_cast<std::int64_t>(r.calls_per_sec)
                  << " calls/sec (" << r.calls << " calls, " << r.wall_sec
                  << " s), " << r.windows << " windows, "
                  << r.messages_sent << " messages, "
                  << r.reply_cache_evictions << " evictions, "
                  << r.retransmissions << " retransmissions, "
                  << r.faults_applied << " faults applied\n";
        const std::string why = violation(s, r);
        if (!why.empty()) {
          std::cerr << "FAIL: " << tag << ": " << why << "\n";
          return 1;
        }
        if (!res.runs.empty() &&
            r.node_digests != res.runs.front().record.node_digests) {
          std::cerr << "FAIL: " << tag
                    << ": per-node digests differ from the first run's — "
                       "the layout or worker count changed what ran\n";
          return 1;
        }
        res.runs.push_back(std::move(run));
      }
    }
    std::cout << res.entry.name << ": per-node digests identical over "
              << res.runs.size() << " runs\n";
  }

  // --- lifeline GLB over DistMap (chaos schedule always on) -----------------
  struct GlbSeed {
    std::uint64_t seed = 0;
    mage::glb::GlbRun single;
    mage::glb::GlbRun multi;
    double single_sec = 0.0;
    double multi_sec = 0.0;
  };
  std::vector<GlbSeed> glb_seeds;
  bool glb_ok = true;
  bool glb_deterministic = true;
  bool glb_exactly_once = true;
  bool glb_migrated = true;
  if (glb) {
    for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
      mage::glb::GlbParams params;
      params.seed = seed;
      params.chaos = true;
      GlbSeed result;
      result.seed = seed;
      auto t0 = Clock::now();
      result.single = mage::glb::run_glb(params, 1);
      auto t1 = Clock::now();
      result.multi = mage::glb::run_glb(params, threads);
      auto t2 = Clock::now();
      result.single_sec = std::chrono::duration<double>(t1 - t0).count();
      result.multi_sec = std::chrono::duration<double>(t2 - t1).count();

      const bool completed = result.single.completed && result.multi.completed;
      const bool deterministic =
          result.single.digest == result.multi.digest &&
          result.single.processed == result.multi.processed &&
          result.single.migrations == result.multi.migrations &&
          result.single.lifeline_steals == result.multi.lifeline_steals;
      const bool exactly_once =
          result.single.exactly_once() && result.multi.exactly_once();
      const bool migrated =
          result.single.migrations >= 1 && result.multi.migrations >= 1;
      glb_deterministic = glb_deterministic && deterministic;
      glb_exactly_once = glb_exactly_once && exactly_once;
      glb_migrated = glb_migrated && migrated;
      glb_ok = glb_ok && completed && deterministic && exactly_once && migrated;

      std::cout << "glb seed " << seed << ": tree=" << result.single.tree_size
                << ", " << result.single.migrations << " migrations, "
                << result.single.lifeline_steals << " lifeline steals, "
                << result.single.faults_applied << " faults, "
                << result.single.requeues << " requeues; 1w "
                << result.single_sec << "s, " << threads << "w "
                << result.multi_sec << "s; "
                << (deterministic ? "digests identical" : "DIGESTS DIVERGED")
                << ", "
                << (exactly_once ? "exactly-once" : "EXACTLY-ONCE VIOLATED")
                << "\n";
      if (!completed) {
        std::cerr << "FAIL: glb seed " << seed
                  << " did not drain within the virtual-time deadline\n";
      }
      glb_seeds.push_back(std::move(result));
    }
  }

  std::ofstream json("BENCH_storm.json");
  json << "{\n"
       << "  \"bench\": \"storm\",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"ladder\": [";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    json << (i ? ", " : "") << ladder[i];
  }
  json << "],\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    write_scenario(json, results[i]);
    json << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ]";
  if (glb) {
    mage::glb::GlbParams defaults;
    json << ",\n  \"glb\": {\n"
         << "    \"nodes\": " << defaults.nodes << ",\n"
         << "    \"partitions\": " << defaults.partitions << ",\n"
         << "    \"threads\": " << threads << ",\n"
         << "    \"oversubscribed\": "
         << (hw != 0 && static_cast<unsigned>(threads) > hw ? "true"
                                                            : "false")
         << ",\n"
         << "    \"deterministic\": " << (glb_deterministic ? "true" : "false")
         << ",\n"
         << "    \"exactly_once\": " << (glb_exactly_once ? "true" : "false")
         << ",\n"
         << "    \"migrated\": " << (glb_migrated ? "true" : "false") << ",\n"
         << "    \"runs\": [\n";
    for (std::size_t i = 0; i < glb_seeds.size(); ++i) {
      const GlbSeed& s = glb_seeds[i];
      json << "      {\n"
           << "        \"seed\": " << s.seed << ",\n"
           << "        \"tree_size\": " << s.single.tree_size << ",\n"
           << "        \"digest\": " << s.single.digest << ",\n"
           << "        \"processed\": " << s.single.processed << ",\n"
           << "        \"migrations\": " << s.single.migrations << ",\n"
           << "        \"lifeline_steals\": " << s.single.lifeline_steals
           << ",\n"
           << "        \"rebalance_moves\": " << s.single.rebalance_moves
           << ",\n"
           << "        \"table_repairs\": " << s.single.table_repairs << ",\n"
           << "        \"dup_hits\": " << s.single.dup_hits << ",\n"
           << "        \"requeues\": " << s.single.requeues << ",\n"
           << "        \"exec_violations\": " << s.single.exec_violations
           << ",\n"
           << "        \"faults_applied\": " << s.single.faults_applied
           << ",\n"
           << "        \"wall_sec_single\": " << s.single_sec << ",\n"
           << "        \"wall_sec_multi\": " << s.multi_sec << "\n"
           << "      }" << (i + 1 < glb_seeds.size() ? "," : "") << "\n";
    }
    json << "    ]\n  }";
  }
  json << "\n}\n";
  std::cout << "wrote BENCH_storm.json\n";
  if (glb && !glb_ok) {
    std::cerr << "FAIL: glb workload violated its contract (see above); "
                 "BENCH_storm.json records the actual flags\n";
    return 1;
  }
  return 0;
}
