#!/usr/bin/env python3
"""Golden gate for the paper benches: their stdout must not change.

The 18 paper benches (bench_fig*, bench_table*, bench_ablation*) print
simulated times, RMI calls per operation, lookup hops and migration
counts.  All of it is deterministic, so any drift is a behavior change,
not noise.  This gate runs every bench that has a golden file under
bench/golden/ and diffs its stdout against it byte for byte.

Usage: python3 ci/check_paper_benches.py [build-dir] [--update]

  build-dir  where the bench binaries live (default: build)
  --update   rewrite the golden files from the current binaries; use it
             only for an intended change, and explain the diff in the PR
"""
import difflib
import pathlib
import subprocess
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "golden"


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--update"]
    update = len(args) != len(sys.argv) - 1
    build = pathlib.Path(args[0] if args else "build").resolve()

    goldens = sorted(GOLDEN_DIR.glob("*.txt"))
    if not goldens:
        print(f"no golden files under {GOLDEN_DIR}")
        return 1
    failures = []
    for golden in goldens:
        binary = build / golden.stem
        if not binary.exists():
            failures.append(f"{golden.stem}: binary missing in {build}")
            continue
        run = subprocess.run(
            [str(binary)], cwd=build, capture_output=True, text=True,
            timeout=600,
        )
        if run.returncode != 0:
            failures.append(f"{golden.stem}: exited {run.returncode}")
            continue
        if update:
            golden.write_text(run.stdout, encoding="utf-8")
            continue
        expected = golden.read_text(encoding="utf-8")
        if run.stdout != expected:
            diff = difflib.unified_diff(
                expected.splitlines(), run.stdout.splitlines(),
                f"golden/{golden.name}", f"{golden.stem} stdout", lineterm="",
            )
            failures.append(f"{golden.stem}: stdout differs\n" +
                            "\n".join(list(diff)[:40]))

    if failures:
        print("paper-bench golden check FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    verb = "updated" if update else "match their golden output"
    print(f"paper-bench golden check OK: {len(goldens)} benches {verb}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
