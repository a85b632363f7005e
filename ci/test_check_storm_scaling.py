#!/usr/bin/env python3
"""Self-test for check_storm_scaling.py: synthetic BENCH_storm.json records.

Builds one record that passes, then one per failure the checker must
catch, and asserts the checker's exit code for each — including which
failures BENCH_GATE_MODE=warn softens (the batch rate and the speedups)
and which it must not.  Needs no build:

    python3 ci/test_check_storm_scaling.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_storm_scaling.py")
ALL_FLAGS = ("--require-chaos", "--require-batch", "--require-glb",
             "--require-speedup")


def run_record(layout, shards, workers, calls_per_sec, **counters):
    base = {
        "net.messages_sent": 1000,
        "net.fifo_violations": 0,
        "rmi.evicted_reexecutions": 0,
        "rmi.reply_cache_evictions": 0,
    }
    base.update(counters)
    return {
        "layout": layout,
        "shards": shards,
        "workers": workers,
        "oversubscribed": False,
        "completed": True,
        "exactly_once": True,
        "digest": "0x00000000000000aa",
        "wall_sec": 0.1,
        "calls_per_sec": calls_per_sec,
        "windows": 10 if shards else 0,
        "failed_calls": 0,
        "order_violations": 0,
        "pending_fault_events": 0,
        "resolutions": 0,
        "reply_cache_capacity_sum": 8192,
        "counters": base,
    }


def scenario(name, ladder_layout, runs, fault_entries=0, calls=120000):
    return {"name": name, "ladder_layout": ladder_layout,
            "fault_entries": fault_entries, "calls": calls, "runs": runs}


def ladder(layout, shards, points, **counters):
    """One run per (workers, calls/s) point."""
    return [run_record(layout, shards, w, rate, **counters)
            for w, rate in points]


def curve(rates):
    """(workers, calls/s) points at 1, 2, 4 and 8 workers."""
    return tuple(zip((1, 2, 4, 8), rates))


CHAOS = {
    "net.faults_applied": 12,
    "net.messages_dropped_by_schedule": 3000,
    "rmi.retransmissions": 3000,
    "rts.elections_held": 11,
    "rmi.directory_failovers": 3,
    "rts.dir_resolves": 16,
}
BATCH = {
    "rmi.batches_sent": 100,
    "rmi.batched_invokes": 3100,
    "rmi.reply_cache_grows": 64,
    "rmi.reply_cache_evictions": 128,
}


def passing():
    """A record every check accepts, on 8 hardware threads, with the runs
    `bench_storm 16 --threads 8 --chaos --glb --wan` makes."""
    storm = ladder("identity", 16, ((1, 100e3), (8, 400e3)))
    storm.append(run_record("simulation", 0, 1, 90e3))
    chaos = ladder("identity", 16, ((1, 80e3), (8, 320e3)), **CHAOS)
    for r in chaos:
        r["order_violations"] = 5  # legitimate under faults
    wan64 = ladder("affinity", 8, curve((100e3, 190e3, 350e3, 400e3)))
    wan64.append(run_record("identity", 64, 8, 300e3))
    return {
        "bench": "storm",
        "hardware_threads": 8,
        "ladder": [1, 2, 4, 8],
        "scenarios": [
            scenario("storm", "identity", storm),
            scenario("batch", "identity",
                     ladder("identity", 16, ((1, 400e3), (8, 1.3e6)),
                            **BATCH)),
            scenario("chaos", "identity", chaos, fault_entries=12),
            scenario("wan64", "affinity", wan64, calls=95200),
            scenario("wan128", "affinity",
                     ladder("affinity", 8, ((1, 100e3), (8, 400e3))),
                     calls=98800),
        ],
        "glb": {
            "threads": 8, "oversubscribed": False, "deterministic": True,
            "exactly_once": True, "migrated": True,
            "runs": [{"seed": s, "tree_size": 100, "processed": 100,
                      "migrations": 2, "lifeline_steals": 2,
                      "exec_violations": 0, "faults_applied": 6}
                     for s in (11, 23, 47)],
        },
    }


def find(doc, name):
    return next(s for s in doc["scenarios"] if s["name"] == name)


def check(doc, *flags, warn=False):
    env = dict(os.environ)
    env.pop("BENCH_GATE_MODE", None)
    if warn:
        env["BENCH_GATE_MODE"] = "warn"
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump(doc, f)
    try:
        return subprocess.run([sys.executable, CHECKER, f.name, *flags],
                              env=env, capture_output=True).returncode
    finally:
        os.unlink(f.name)


class CheckStormScaling(unittest.TestCase):
    def test_passing_record_passes(self):
        self.assertEqual(check(passing(), *ALL_FLAGS), 0)
        self.assertEqual(check(passing(), *ALL_FLAGS, warn=True), 0)

    def test_diverged_digests_fail_in_every_scenario(self):
        for name in ("storm", "batch", "chaos", "wan64", "wan128"):
            with self.subTest(scenario=name):
                doc = passing()
                find(doc, name)["runs"][-1]["digest"] = "0x00000000000000bb"
                self.assertEqual(check(doc, *ALL_FLAGS), 1)
                self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)

    def test_chaos_run_not_exactly_once_fails(self):
        doc = passing()
        find(doc, "chaos")["runs"][1]["exactly_once"] = False
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)

    def test_chaos_thresholds_fail(self):
        for key, value in (("net.faults_applied", 7),
                           ("rts.elections_held", 0),
                           ("rmi.directory_failovers", 0),
                           ("rts.dir_resolves", 0)):
            with self.subTest(counter=key):
                doc = passing()
                find(doc, "chaos")["runs"][0]["counters"][key] = value
                self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)

    def test_batch_below_coalescing_bound_fails(self):
        doc = passing()
        find(doc, "batch")["runs"][1]["counters"]["rmi.batched_invokes"] = 199
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)

    def test_batch_eviction_bound_fails(self):
        doc = passing()
        counters = find(doc, "batch")["runs"][0]["counters"]
        counters["rmi.reply_cache_evictions"] = 1200  # 1% of 120k calls
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)

    def test_out_of_order_fails_only_without_faults(self):
        doc = passing()
        find(doc, "storm")["runs"][0]["order_violations"] = 1
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)

    def test_missing_scenario_fails_under_its_flag(self):
        for flag, names in (("--require-chaos", ("chaos",)),
                            ("--require-batch", ("batch",)),
                            ("--require-speedup", ("wan64", "wan128"))):
            for name in names:
                with self.subTest(flag=flag, scenario=name):
                    doc = passing()
                    doc["scenarios"].remove(find(doc, name))
                    self.assertEqual(check(doc, flag), 1)
                    self.assertEqual(check(doc, flag, warn=True), 1)
                    self.assertEqual(check(doc), 0)

    def test_missing_glb_fails_under_its_flag(self):
        doc = passing()
        del doc["glb"]
        self.assertEqual(check(doc, "--require-glb"), 1)
        self.assertEqual(check(doc, "--require-glb", warn=True), 1)
        self.assertEqual(check(doc), 0)

    def test_missing_storm_always_fails(self):
        doc = passing()
        doc["scenarios"].remove(find(doc, "storm"))
        self.assertEqual(check(doc), 1)

    def test_oversubscribed_wan_point_does_not_count(self):
        doc = passing()
        doc["hardware_threads"] = 4
        for name in ("storm", "batch", "chaos", "wan64", "wan128"):
            for r in find(doc, name)["runs"]:
                r["oversubscribed"] = r["workers"] > 4
        # Only the oversubscribed 8-worker point beats one worker.
        runs = find(doc, "wan64")["runs"]
        for r, rate in zip(runs, (100e3, 90e3, 95e3, 500e3)):
            r["calls_per_sec"] = rate
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 0)
        # The same point, not oversubscribed, would pass.
        runs[3]["oversubscribed"] = False
        doc["hardware_threads"] = 8
        self.assertEqual(check(doc, *ALL_FLAGS), 0)

    def test_storm_speedup_reads_the_top_rung(self):
        # A 4-worker run that clears the 3.0x bar does not excuse an
        # 8-worker run that misses it.
        doc = passing()
        find(doc, "storm")["runs"][0:2] = ladder(
            "identity", 16, curve((100e3, 190e3, 350e3, 250e3)))
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 0)
        # An oversubscribed top run still counts, against the bar for the
        # cores it could use (1.5x on 4 hardware threads).
        doc = passing()
        doc["hardware_threads"] = 4
        top = find(doc, "storm")["runs"][1]
        top["oversubscribed"] = True
        top["calls_per_sec"] = 140e3
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        top["calls_per_sec"] = 160e3
        self.assertEqual(check(doc, *ALL_FLAGS), 0)

    def test_warn_softens_storm_speedup(self):
        doc = passing()
        for r in find(doc, "storm")["runs"]:
            r["calls_per_sec"] = 100e3  # 1.0x, 3.0x required on 8 threads
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 0)

    def test_warn_softens_batch_rate(self):
        doc = passing()
        for r, rate in zip(find(doc, "batch")["runs"], (300e3, 900e3)):
            r["calls_per_sec"] = rate  # below the 1M floor
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 0)

    def test_batch_rate_reads_the_one_worker_and_top_rungs(self):
        # Only the 4-worker run clears the 1M floor: it does not count.
        doc = passing()
        find(doc, "batch")["runs"] = ladder(
            "identity", 16, curve((400e3, 700e3, 1.1e6, 900e3)), **BATCH)
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 0)

    def test_record_without_multi_worker_runs_fails(self):
        # What bench_storm writes without --threads: every ladder is [1].
        doc = passing()
        for s in doc["scenarios"]:
            s["runs"] = [r for r in s["runs"]
                         if r["layout"] != s["ladder_layout"] or
                         r["workers"] == 1]
        self.assertEqual(check(doc), 1)
        self.assertEqual(check(doc, *ALL_FLAGS), 1)
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)

    def test_worker_ladder_must_start_at_one(self):
        doc = passing()
        del find(doc, "wan64")["runs"][0]
        self.assertEqual(check(doc, *ALL_FLAGS, warn=True), 1)


if __name__ == "__main__":
    unittest.main()
