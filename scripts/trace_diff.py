#!/usr/bin/env python3
"""Traced work counters that differ between two checkouts.

    python3 scripts/trace_diff.py PARENT CHANGE --workload W --seed S

PARENT and CHANGE are two checkouts of this repository.  It runs
``perfbench/run.py --workload W --seed S --seconds 3 --trace 1`` once in
each and compares the per-layer metrics of the two results.  Timings
(names ending in ``_s``) and ``trace.overhead_ratio`` are left out; the
others are counts and ratios of work over the workload's fixed window of
ops, so a seed fixes them.  Prints one line per metric that differs, or
is missing on one side, and exits 1 if there is any, else 0.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def work_counters(result: dict) -> dict:
    """The traced work counters of a perfbench result: every metric but
    the timings and the tracer's own overhead."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith("_s") and name != "trace.overhead_ratio"}


def differences(parent: dict, change: dict) -> list[str]:
    """One line per work counter that differs between two traced results,
    by name; a counter missing on one side shows as ``-``."""
    old, new = work_counters(parent), work_counters(change)
    return [f"{name:34s} {old.get(name, '-')!s:>14s} -> {new.get(name, '-')!s}"
            for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def run_traced(checkout: str, workload: str, seed: int) -> dict:
    # the run's working directory is the checkout: a relative path would
    # be read from there a second time
    checkout = os.path.abspath(checkout)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "3", "--trace", "1"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"trace_diff: {' '.join(cmd)} exited {done.returncode}: "
                 f"{done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    parent, change = (run_traced(side, args.workload, args.seed)
                      for side in (args.parent, args.change))
    lines = differences(parent, change)
    print(f"{args.workload} seed {args.seed}: {len(work_counters(change))} work counters, "
          f"{len(lines)} differ")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
