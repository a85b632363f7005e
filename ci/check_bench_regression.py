#!/usr/bin/env python3
"""Bench-regression gate for the RMI hot path.

Compares a freshly measured build/BENCH_hotpath.json against the committed
baseline BENCH_hotpath.json and fails when the steady-state cost per call
(ns/call, the inverse of calls_per_sec) regressed by more than the
threshold.  Also re-enforces the hard contracts the bench itself asserts,
so a tampered or truncated JSON cannot slip through:

  * zero payload bytes deep-copied per call,
  * zero heap allocations per steady-state send (envelope headers and
    small bodies are inline serial::Buffers; payloads travel by refcount).

Usage:
  check_bench_regression.py <committed.json> <fresh.json> [--max-regression-pct N]

Environment:
  BENCH_GATE_MODE=warn   report the comparison but always exit 0 (escape
                         hatch for known-noisy runners)
"""
import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def ns_per(value_per_sec):
    return 1e9 / value_per_sec


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("committed")
    parser.add_argument("fresh")
    parser.add_argument("--max-regression-pct", type=float, default=15.0)
    args = parser.parse_args()

    committed = load(args.committed)["current"]
    fresh = load(args.fresh)["current"]

    failures = []
    rows = []
    for key, unit in (("calls_per_sec", "ns/call"),
                      ("events_per_sec", "ns/event")):
        base = ns_per(committed[key])
        now = ns_per(fresh[key])
        delta_pct = (now - base) / base * 100.0
        verdict = "ok"
        if delta_pct > args.max_regression_pct:
            verdict = "REGRESSION"
            failures.append(
                f"{key}: {now:.1f} {unit} vs committed {base:.1f} {unit} "
                f"(+{delta_pct:.1f}% > {args.max_regression_pct:.0f}% budget)")
        rows.append((unit, base, now, delta_pct, verdict))

    print(f"{'metric':<10} {'committed':>12} {'fresh':>12} {'delta':>9}")
    for unit, base, now, delta_pct, verdict in rows:
        print(f"{unit:<10} {base:>12.1f} {now:>12.1f} {delta_pct:>+8.1f}% {verdict}")

    if fresh.get("payload_bytes_copied_per_call", 0) != 0:
        failures.append("zero-copy contract broken: payload bytes copied "
                        f"per call = {fresh['payload_bytes_copied_per_call']}")
    if fresh.get("allocations_per_send", 99) > 0:
        failures.append("allocation contract broken: "
                        f"{fresh['allocations_per_send']} allocations/send")

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        if os.environ.get("BENCH_GATE_MODE") == "warn":
            print("BENCH_GATE_MODE=warn: reporting only, not failing")
            return 0
        return 1
    print("bench gate: no regression beyond "
          f"{args.max_regression_pct:.0f}% budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
