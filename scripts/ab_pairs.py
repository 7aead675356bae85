#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised metric by metric.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload W --seeds A-B --seconds S

PARENT and CHANGE are two checkouts of this repository.  For each seed it
runs ``perfbench/run.py --workload W --seed SEED --seconds S --trace 0``
once in each checkout, the parent first on odd seeds and the change first
on even ones, so that drift in the machine's speed falls on both sides
alike.  Each run's last output line is its result.

For each end-to-end metric of ``BENCHMARK.json`` it then prints each
side's median and quartiles, the pairs the change won (strictly better in
the metric's direction), the ratio of the medians change/parent, whether
the medians differ by more than the parent's inter-quartile range, and a
verdict: ``scripts/bench_compare.py``'s ``verdict`` on each side's median,
relative inter-quartile range and values, with the metric's bound from
``BENCHMARK.json`` (``worse``, ``unresolved``, ``better`` or ``within
bound``).  A last line gives each side's failed ops and incorrect runs.
When the seeds include all of the held-out seeds 7-10, a second table
follows that summarises those four pairs alone.  Each pair's values go to
standard error as the runs finish.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
from bench_compare import verdict  # noqa: E402
HELD_OUT = range(7, 11)  # seeds that every speed claim also reports alone


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as perfbench's spread
    computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def as_summary(values: list[float]) -> dict:
    """One side's runs as ``verdict`` reads a summary: the median, the
    inter-quartile range over the median (perfbench's spread), the values."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def summarise(pairs: list[tuple[dict, dict]], specs: list[dict]) -> list[str]:
    """Report lines for ``pairs`` of (parent, change) run results, each the
    JSON object that ends a perfbench run, over the end-to-end metrics
    ``specs`` (``name``, ``better`` and ``bound`` of each)."""
    lines = [f"{'metric':18s} {'parent q1':>10s} {'median':>10s} {'q3':>10s} "
             f"{'change q1':>10s} {'median':>10s} {'q3':>10s} {'won':>6s} "
             f"{'ratio':>7s}  beyond parent IQR  verdict"]
    for spec in specs:
        name = spec["name"]
        sign = 1 if spec["better"] == "higher" else -1
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum(sign * (n - o) > 0 for o, n in zip(old, new))
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        ratio = f"{nmed / omed:7.3f}" if omed else f"{'-':>7s}"
        beyond = "yes" if abs(nmed - omed) > oq3 - oq1 else "no"
        judged = verdict(as_summary(old), as_summary(new), spec["better"], spec["bound"])
        lines.append(f"{name:18s} {oq1:10.4g} {omed:10.4g} {oq3:10.4g} "
                     f"{nq1:10.4g} {nmed:10.4g} {nq3:10.4g} {f'{won}/{len(pairs)}':>6s} "
                     f"{ratio}  {beyond:17s}  {judged}")
    failed = [sum(run[side]["failed"] for run in pairs) for side in (0, 1)]
    wrong = [sum(not run[side]["correct"] for run in pairs) for side in (0, 1)]
    lines.append(f"failed ops: parent {failed[0]}, change {failed[1]}; "
                 f"incorrect runs: parent {wrong[0]}, change {wrong[1]}")
    return lines


def report(seeds: list[int], pairs: list[tuple[dict, dict]], specs: list[dict]) -> list[str]:
    """The summary of all ``pairs``, run on ``seeds`` in order, followed by
    one of the held-out pairs alone when ``seeds`` covers them all."""
    lines = summarise(pairs, specs)
    if set(HELD_OUT) <= set(seeds):
        held = [pair for seed, pair in zip(seeds, pairs) if seed in HELD_OUT]
        lines += [f"held-out seeds {HELD_OUT[0]}-{HELD_OUT[-1]}: {len(held)} pairs"]
        lines += summarise(held, specs)
    return lines


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    # the run's working directory is the checkout: a relative path would
    # be read from there a second time
    checkout = os.path.abspath(checkout)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab_pairs: {' '.join(cmd)} exited {done.returncode}: "
                 f"{done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="seed range A-B")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["end_to_end"]
    seeds, pairs = parse_seeds(args.seeds), []
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        got = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
               for side in order}
        pairs.append((got["parent"], got["change"]))
        shown = ", ".join(f"{s['name']} {got['parent']['metrics'][s['name']]['value']:.4g}"
                          f" -> {got['change']['metrics'][s['name']]['value']:.4g}"
                          for s in specs)
        print(f"seed {seed}: {shown}", file=sys.stderr)
    print(f"{args.workload}: {len(pairs)} pairs, {args.seconds:g} s per run")
    print("\n".join(report(seeds, pairs, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
