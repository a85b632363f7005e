#!/usr/bin/env python3
"""Checks the storm record bench_storm writes (BENCH_storm.json).

The record's `scenarios` array holds one entry per storm scenario, each
with one record per run (layout x worker count).  Every scenario gets the
same checks:

  * every run has the same digest (per-node execution digests folded), so
    neither the layout nor the worker count changed what ran;
  * every run completed with no failed call, every request executed
    exactly once, no wire-FIFO violation, no eviction-caused re-execution,
    and, on a fault-free scenario, no out-of-order execution;
  * sharded runs recorded windows, every run recorded messages sent;
  * the ladder layout's worker counts start at 1 and strictly increase to
    a multi-worker run (a record made without --threads fails here).

SCENARIOS adds each scenario's own thresholds.  Rate and speedup
thresholds read `hardware_threads`.  The storm speedup is the ladder's
top run over its 1-worker run, against the bar for the cores the top run
could use.  A WAN speedup is the best run that was not oversubscribed
(workers <= hardware threads) over the 1-worker run, so an oversubscribed
point never counts for or against it.  The batch rate is the better of
the 1-worker and top runs.  The rate and the speedups are the only
failures BENCH_GATE_MODE=warn reports without failing.

The `glb` block (bench_storm --glb: lifeline GLB over migrating DistMap
partitions, three seeds at 1 and T workers) keeps its own shape and
checks: digests and structural counters identical across worker counts,
every tree node expanded exactly once, a migration and applied faults
per seed.

Usage: check_storm_scaling.py <BENCH_storm.json> [--require-chaos]
                              [--require-batch] [--require-glb]
                              [--require-speedup]
"""
import json
import os
import sys


def required_speedup(hardware_threads, workers):
    usable = min(hardware_threads, workers)
    if usable >= 8:
        return 3.0
    if usable >= 4:
        return 1.5
    if usable >= 2:
        return 1.1
    return None  # single core: only determinism is checkable


def required_batch_rate(hardware_threads):
    # The acceptance bar: > 1M calls/sec on a dev-class multi-core box.
    # Shared 1-core CI containers run the identical binary 2-4x slower and
    # with heavy wall-clock noise, so the floor scales like the speedup
    # ladder above rather than pretending the hardware is equal.
    if hardware_threads >= 4:
        return 1_000_000.0
    if hardware_threads >= 2:
        return 600_000.0
    return 400_000.0


# Per scenario: the --require flag that demands it (None: always
# required), minimum counter values on every run, the batching bounds, and
# the soft rate or speedup rule ("top" or "best", see the docstring).
SCENARIOS = {
    "storm": {"require": None, "speedup": "top"},
    "batch": {
        "require": "--require-batch",
        "min": {"rmi.batches_sent": 1, "rmi.reply_cache_grows": 1},
        "min_invokes_per_frame": 2,
        "max_eviction_share": 0.01,
        "rate": True,
    },
    "chaos": {
        "require": "--require-chaos",
        "min": {
            "net.faults_applied": 8,
            "net.messages_dropped_by_schedule": 1,
            "rmi.retransmissions": 1,
            "rts.elections_held": 1,
            "rmi.directory_failovers": 1,
            "rts.dir_resolves": 1,
        },
    },
    "wan64": {"require": "--require-speedup", "speedup": "best"},
    "wan128": {"require": "--require-speedup", "speedup": "best"},
}


def check_run(scenario, run):
    """Hard failures of one run, as messages."""
    tag = (f"{scenario['name']} {run.get('layout')} "
           f"x{run.get('workers')}")
    counters = run.get("counters", {})
    failures = []
    if not run.get("completed", False):
        failures.append(f"{tag}: drained before every call was answered")
    if run.get("failed_calls", -1) != 0:
        failures.append(f"{tag}: failed calls")
    if not run.get("exactly_once", False):
        failures.append(f"{tag}: some request did not execute exactly once")
    if counters.get("net.fifo_violations", -1) != 0:
        failures.append(f"{tag}: wire-FIFO violations")
    if counters.get("rmi.evicted_reexecutions", -1) != 0:
        failures.append(f"{tag}: eviction-caused re-executions")
    if scenario.get("fault_entries", 0) == 0 and \
            run.get("order_violations", -1) != 0:
        failures.append(f"{tag}: per-link ordering violations")
    if run.get("shards", 0) > 0 and run.get("windows", 0) < 1:
        failures.append(f"{tag}: no windows recorded")
    if counters.get("net.messages_sent", 0) < 1:
        failures.append(f"{tag}: messages_sent is zero — the counter "
                        "registry is not wired through")
    rules = SCENARIOS.get(scenario["name"], {})
    for key, least in rules.get("min", {}).items():
        if counters.get(key, 0) < least:
            failures.append(f"{tag}: {key} = {counters.get(key, 0)}, "
                            f"needs >= {least}")
    if "min_invokes_per_frame" in rules:
        frames = counters.get("rmi.batches_sent", 0)
        invokes = counters.get("rmi.batched_invokes", 0)
        if invokes < rules["min_invokes_per_frame"] * frames:
            failures.append(f"{tag}: batching never coalesced "
                            f"({invokes} invokes / {frames} frames)")
    if "max_eviction_share" in rules:
        calls = scenario.get("calls", 0)
        evictions = counters.get("rmi.reply_cache_evictions", calls)
        if evictions >= rules["max_eviction_share"] * calls:
            failures.append(f"{tag}: {evictions} evictions on {calls} calls "
                            "despite adaptive sizing")
    return failures


def check_scenario(scenario, hw):
    """(hard failures, soft failures, summary line) of one scenario."""
    name = scenario["name"]
    runs = scenario.get("runs", [])
    if not runs:
        return [f"{name}: no runs"], [], ""
    failures = []
    for run in runs:
        failures += check_run(scenario, run)
    digests = {run.get("digest") for run in runs}
    if len(digests) != 1:
        failures.append(f"{name}: digests diverged across layouts and "
                        f"worker counts ({len(digests)} distinct)")
    ladder = [r for r in runs if r.get("layout") == scenario.get(
        "ladder_layout")]
    workers = [r.get("workers", 0) for r in ladder]
    if len(workers) < 2:
        failures.append(f"{name}: worker ladder {workers} has no "
                        "multi-worker run — run bench_storm with --threads")
        return failures, [], ""
    if workers[0] != 1 or workers != sorted(set(workers)):
        failures.append(f"{name}: worker ladder {workers} must start at 1 "
                        "and strictly increase")
        return failures, [], ""
    one, top = ladder[0], ladder[-1]
    if one.get("calls_per_sec", 0) <= 0:
        failures.append(f"{name}: no measured 1-worker ladder run")
        return failures, [], ""

    rules = SCENARIOS.get(name, {})
    soft = []
    speedup = top["calls_per_sec"] / one["calls_per_sec"]
    note = f"{speedup:.2f}x at {top['workers']} workers"
    if rules.get("speedup") == "top":
        need = required_speedup(hw, top["workers"])
        if need is None:
            note += " (1 usable core: not enforced)"
        elif speedup < need:
            soft.append(f"{name}: speedup {speedup:.2f}x with "
                        f"{top['workers']} workers below required "
                        f"{need:.1f}x")
        else:
            note += f" (required {need:.1f}x)"
    elif rules.get("speedup") == "best":
        usable = [r for r in ladder if not r.get("oversubscribed", False)]
        best = max(r["calls_per_sec"] for r in usable) / one["calls_per_sec"]
        note = f"{best:.2f}x best non-oversubscribed speedup"
        if hw >= 4 and len(usable) >= 2:
            if best <= 1.0:
                soft.append(f"{name}: speedup {best:.2f}x is not > 1.0x "
                            f"despite {hw} hardware threads (non-"
                            "oversubscribed ladder "
                            f"{[r['workers'] for r in usable]})")
        else:
            note += (f" (not enforced: {hw} hardware threads, "
                     f"{len(usable)} non-oversubscribed points)")
    if rules.get("rate"):
        rate = max(one["calls_per_sec"], top["calls_per_sec"])
        need = required_batch_rate(hw)
        note += f", {rate:,.0f} calls/sec (required {need:,.0f})"
        if rate < need:
            soft.append(f"{name}: rate {rate:,.0f} calls/sec below "
                        f"required {need:,.0f}")
    summary = (f"{name}: {len(runs)} runs, digests identical; ladder "
               f"{workers} on {scenario.get('ladder_layout')}: " + note)
    return failures, soft, summary


def check_glb(data, require_glb):
    glb = data.get("glb")
    if not glb:
        if require_glb:
            print("no glb block in BENCH_storm.json — run with --glb",
                  file=sys.stderr)
            return 1
        return 0
    failures = []
    if not glb.get("deterministic", False):
        failures.append("glb digests/counters diverged across worker counts")
    if not glb.get("exactly_once", False):
        failures.append("some glb tree node was not expanded exactly once")
    if not glb.get("migrated", False):
        failures.append("a glb run finished without any partition migration")
    runs = glb.get("runs", [])
    if len(runs) < 3:
        failures.append(f"glb ran only {len(runs)} seeds (need >= 3)")
    for run in runs:
        tag = f"glb seed {run.get('seed')}"
        if run.get("exec_violations", -1) != 0:
            failures.append(f"{tag}: per-key exec-count violations")
        if run.get("processed", 0) != run.get("tree_size", -1):
            failures.append(f"{tag}: processed {run.get('processed')} of "
                            f"{run.get('tree_size')} tree nodes")
        if run.get("migrations", 0) < 1:
            failures.append(f"{tag}: no load-driven partition migrations")
        if run.get("faults_applied", 0) < 1:
            failures.append(f"{tag}: chaos schedule did not apply")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    total_nodes = sum(r["tree_size"] for r in runs)
    total_migrations = sum(r["migrations"] for r in runs)
    total_steals = sum(r["lifeline_steals"] for r in runs)
    print(f"glb: {len(runs)} seeds, {total_nodes} tree nodes expanded "
          f"exactly once under chaos; {total_migrations} migrations "
          f"({total_steals} lifeline steals); digests identical across "
          f"worker counts")
    return 0


def main():
    flags = {"--require-chaos", "--require-batch", "--require-glb",
             "--require-speedup"}
    args = [a for a in sys.argv[1:] if a not in flags]
    given = flags & set(sys.argv[1:])
    with open(args[0]) as f:
        data = json.load(f)
    hw = data.get("hardware_threads", 1)
    scenarios = {s.get("name"): s for s in data.get("scenarios", [])}

    failures = []
    soft = []
    for name, rules in SCENARIOS.items():
        if name not in scenarios and (rules["require"] is None or
                                      rules["require"] in given):
            failures.append(f"no {name} scenario in BENCH_storm.json"
                            + (f" ({rules['require']})"
                               if rules["require"] else ""))
    for scenario in scenarios.values():
        hard, gate, summary = check_scenario(scenario, hw)
        failures += hard
        soft += gate
        if summary:
            print(summary)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    if check_glb(data, "--require-glb" in given) != 0:
        return 1
    if soft:
        for f in soft:
            print(f"FAIL: {f}", file=sys.stderr)
        if os.environ.get("BENCH_GATE_MODE") == "warn":
            print("BENCH_GATE_MODE=warn: reporting only, not failing")
            return 0
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
