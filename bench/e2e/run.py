#!/usr/bin/env python3
"""Runner for the end-to-end benchmark (bench_e2e).

Builds the benchmark (an optimized CMake build of bench/e2e, which compiles
the library from src/), runs each workload in its own process, prints every
metric as `workload name value unit`, writes a results file, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  A run's value comes from its rounds (their
median, or for throughput all ops over all round time); with --repeat N
every workload runs N times (workloads interleaved) and the value is the
median of the runs.  Exits 1 on any correctness failure, 2 when the
benchmark cannot be built or run.

    python3 bench/e2e/run.py [--build DIR] [--seed N] [--seconds S]
                             [--workload NAME] [--trace [0|1]] [--layers]
                             [--repeat N] [--out FILE]
    python3 bench/e2e/run.py --compare A.json B.json

--compare applies BENCHMARK.json's bounds to two results files and prints
one row per workload and metric: ok, worse, or unresolved when either
side's spread (quartile distance over median: across runs when the side
has several, else across the rounds of its one run) exceeds the bound and
not every run of B beats every run of A.  Sim-time latencies and
error_rate are deterministic per seed, so for them any worsening is worse.
Exits 1 when any row is worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"
WORKLOADS = ["storm", "storm-batch", "wan", "mobile"]
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        return json.loads(BENCHMARK.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {BENCHMARK}: {e}")


def build(build_dir):
    tree = build_dir / "bench_e2e"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("building bench_e2e failed: " + " ".join(step))
    return tree / "bench_e2e"


def spread(values):
    """(q1, q3) of the values; both the value itself when there is one."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_once(binary, workload, args, build_dir):
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", str(build_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload}: bench_e2e exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def merge_runs(raws):
    """One workload's result from its runs' raw bench_e2e outputs."""
    result = {"workers": raws[0]["workers"],
              "correct": all(r["correct"] for r in raws),
              "errors": [e for r in raws for e in r["errors"]],
              "attempted": sum(r["attempted"] for r in raws),
              "failed": sum(r["failed"] for r in raws),
              "metrics": {}}
    for name, metric in raws[0]["metrics"].items():
        runs = [r["metrics"][name]["value"] for r in raws]
        # One run: its spread is the spread of its rounds.
        q1, q3 = spread(runs if len(runs) > 1 else metric["samples"])
        result["metrics"][name] = {
            "value": statistics.median(runs), "unit": metric["unit"],
            "q1": q1, "q3": q3, "runs": runs,
            "rounds": [r["metrics"][name]["samples"] for r in raws]}
    return result


def run(args):
    bench = load_benchmark()
    build_dir = Path(args.build or os.environ.get("CARGO_TARGET_DIR")
                     or ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    binary = build(build_dir)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = [args.workload] if args.workload else WORKLOADS
    wanted = [m["name"] for m in
              bench["per_layer" if args.trace else "end_to_end"]]

    raws = {w: [] for w in workloads}
    for _ in range(args.repeat):
        for workload in workloads:
            raws[workload].append(run_once(binary, workload, args, build_dir))

    results = {}
    for workload in workloads:
        result = merge_runs(raws[workload])
        results[workload] = result
        for name, m in result["metrics"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        for error in result["errors"]:
            print(f"{workload} FAIL {error}", file=sys.stderr)
        missing = [n for n in wanted if n not in result["metrics"]]
        if missing:
            fail(f"{workload}: no value for {', '.join(missing)}")

    out = Path(args.out) if args.out else \
        build_dir / f"e2e_results{'_trace' if args.trace else ''}.json"
    out.write_text(json.dumps({"seed": args.seed, "trace": args.trace,
                               "seconds": args.seconds, "repeat": args.repeat,
                               "workloads": results}, indent=1) + "\n")
    print(f"results written to {out}", file=sys.stderr)

    correct = all(r["correct"] for r in results.values())
    line = {"correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values())}
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
        line["metrics"] = {n: {"value": metrics[n]["value"],
                               "unit": metrics[n]["unit"]} for n in wanted}
    else:
        line["metrics"] = {f"{w}/{n}": {"value": r["metrics"][n]["value"],
                                        "unit": r["metrics"][n]["unit"]}
                           for w, r in results.items() for n in wanted}
    print(json.dumps(line))
    sys.exit(0 if correct else 1)


def worsening(spec, a, b):
    """Relative change of b against a, positive when b is worse."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if spec["better"] == "lower" else -change


def compare(path_a, path_b):
    bench = load_benchmark()
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    try:
        a_all = json.loads(Path(path_a).read_text())["workloads"]
        b_all = json.loads(Path(path_b).read_text())["workloads"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read results: {e}")
    print(f"{'workload':12} {'metric':28} {'A':>14} {'B':>14} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    any_worse = False
    for workload in [w for w in WORKLOADS if w in a_all and w in b_all]:
        ma = a_all[workload]["metrics"]
        mb = b_all[workload]["metrics"]
        for name in [n for n in ma if n in mb]:
            spec = bounded.get(name) or layers.get(name)
            if spec is None:
                continue
            a, b = ma[name], mb[name]
            change = worsening(spec, a["value"], b["value"])
            spread_share = max((s["q3"] - s["q1"]) / abs(s["value"])
                               if s["value"] else 0.0 for s in (a, b))
            if name in bounded:
                bound = spec["bound"]
                b_always_better = all(worsening(spec, x, y) < 0
                                      for x in a["runs"] for y in b["runs"])
                if spread_share > bound and not b_always_better:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if change > bound else "ok"
            elif a["unit"] == "sim_us" or name == "error_rate":
                bound = 0.0
                verdict = "worse" if change > 0 else "ok"
            else:
                bound = None
                verdict = "info"
            any_worse |= verdict == "worse"
            bound_text = f"{bound:.0%}" if bound is not None else "-"
            print(f"{workload:12} {name:28} {a['value']:14.6g} "
                  f"{b['value']:14.6g} {change:+8.1%} {spread_share:7.1%} "
                  f"{bound_text:>6}  {verdict}")
    sys.exit(1 if any_worse else 0)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build", help="build directory (default: "
                        "$CARGO_TARGET_DIR or .bench_build)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run with layer timings, per-layer "
                        "metrics")
    parser.add_argument("--layers", action="store_true",
                        help="same as --trace 1 (the traced run includes "
                        "the isolated layer timings)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (default 1)")
    parser.add_argument("--out", help="results file (default: in the build "
                        "directory)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    if args.layers:
        args.trace = 1
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    run(args)


if __name__ == "__main__":
    main()
