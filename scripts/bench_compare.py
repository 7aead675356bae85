#!/usr/bin/env python3
"""Compare two saved benchmark summaries metric by metric.

    python3 scripts/bench_compare.py BENCH_OLD.json BENCH_NEW.json

Both files are summaries written by ``perfbench/run.py --workload all
--seeds A-B --save FILE``.  One header line per file first gives the
environment it records: ``git_commit``, ``source_sha256``, the Python
version and ``nproc``.  When the two files name the same commit but their
source hashes differ, a note says so: at least one was measured on a tree
that differs from the commit it names.

For each workload and end-to-end metric it prints both medians, the ratio
new/old, both spreads (inter-quartile range over median, across seeds) and
the bound from ``BENCHMARK.json``, with a verdict, checked in this order:

- ``worse``: the median is worse than the old one by more than the bound;
- ``unresolved``: a spread exceeds the bound, and not every new run is
  better than every old run (if every one is, ``better``);
- ``better``: the medians differ, in the better direction, by more than
  the old runs' inter-quartile range;
- ``within bound``: anything else.

The per-layer numbers of the one traced seed follow, with their ratios
and no verdict.  A work counter (unit ``count``) whose value differs
between the two files is marked ``changed`` in a last column, since a
counter that moves has to be named and explained.  Exits with status 1
when any verdict is ``worse``.
Standard library only.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(old: dict, new: dict, better: str, bound: float) -> str:
    """Verdict for one metric, from the ``median``, ``spread`` and
    ``values`` entries of its old and new summaries."""
    sign = 1 if better == "higher" else -1
    gain = sign * (new["median"] - old["median"]) / old["median"]
    if gain < -bound:
        return "worse"
    if max(old["spread"], new["spread"]) > bound:
        wins = all(sign * (n - o) > 0 for n in new["values"] for o in old["values"])
        return "better" if wins else "unresolved"
    return "better" if gain > old["spread"] else "within bound"


def environments(paths: list[str], summaries: list[dict]) -> list[str]:
    """One line per summary naming the environment it records, and a note
    when both name one commit with different source hashes."""
    envs = [summary.get("environment", {}) for summary in summaries]
    lines = [f"{side} {path}: git_commit {env.get('git_commit', '-')}, source_sha256 "
             f"{env.get('source_sha256', '-')}, Python {env.get('python', '-')}, "
             f"nproc {env.get('nproc', '-')}"
             for side, path, env in zip(("old", "new"), paths, envs)]
    a, b = envs
    if a.get("git_commit") and a.get("git_commit") == b.get("git_commit") and (
            a.get("source_sha256") != b.get("source_sha256")):
        lines.append("note: both name the same commit but their source hashes differ; "
                     "at least one tree differs from the commit it names")
    return lines


def compare(old: dict, new: dict, bench: dict) -> tuple[list[str], int]:
    """Report lines and the number of ``worse`` verdicts."""
    lines = [f"{'workload':18s} {'metric':18s} {'old':>11s} {'new':>11s} {'new/old':>8s} "
             f"{'old sprd':>8s} {'new sprd':>8s} {'bound':>6s}  verdict"]
    worse = 0
    for wl in bench["workloads"]:
        name = wl["name"]
        a, b = old["workloads"].get(name), new["workloads"].get(name)
        if a is None or b is None:
            lines.append(f"{name:18s} missing from the {'old' if a is None else 'new'} summary")
            continue
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            x, y = a["end_to_end"][metric], b["end_to_end"][metric]
            v = verdict(x, y, spec["better"], spec["bound"])
            worse += v == "worse"
            lines.append(
                f"{name:18s} {metric:18s} {x['median']:11.4g} {y['median']:11.4g} "
                f"{y['median'] / x['median']:8.3f} {x['spread']:8.3f} {y['spread']:8.3f} "
                f"{spec['bound']:6.2f}  {v}")
        if a["failed"] or b["failed"]:
            lines.append(f"{name:18s} failed ops: old {a['failed']}, new {b['failed']}")
    lines.append("")
    lines.append(f"{'workload':18s} {'per-layer metric (one traced seed)':38s} "
                 f"{'old':>11s} {'new':>11s} {'new/old':>8s}  changed")
    for wl in bench["workloads"]:
        name = wl["name"]
        if name not in old["workloads"] or name not in new["workloads"]:
            continue
        a, b = old["workloads"][name]["per_layer"], new["workloads"][name]["per_layer"]
        for spec in bench["per_layer"]:
            metric = spec["name"]
            if metric not in a or metric not in b:
                continue
            x, y = a[metric]["value"], b[metric]["value"]
            ratio = f"{y / x:8.3f}" if x else f"{'-':>8s}"
            moved = "  changed" if spec["unit"] == "count" and x != y else ""
            lines.append(f"{name:18s} {metric:38s} {x:11.4g} {y:11.4g} {ratio}{moved}")
    return lines, worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    summaries = []
    for path in argv:
        with open(path) as fh:
            summaries.append(json.load(fh))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    lines, worse = compare(summaries[0], summaries[1], bench)
    print("\n".join(environments(argv, summaries) + lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
