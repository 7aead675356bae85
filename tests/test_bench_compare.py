"""``scripts/bench_compare.py`` on two synthetic benchmark summaries."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"


def _metric(values, spread):
    values = sorted(values)
    return {"unit": "x", "median": values[len(values) // 2], "spread": spread,
            "values": values}


def _summary(end_to_end, per_layer, failed=0):
    return {"workloads": {"pipeline_gnp": {
        "correct": True, "attempted": 100, "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": {k: {"value": v, "unit": "s"} for k, v in per_layer.items()},
    }}}


def _run(tmp_path, old, new):
    paths = []
    for name, summary in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(summary))
        paths.append(str(path))
    done = subprocess.run([sys.executable, str(SCRIPT), *paths],
                          capture_output=True, text=True, timeout=60)
    # metric -> (numeric cells, verdict) of the end-to-end rows
    rows = {}
    for line in done.stdout.splitlines():
        cells = line.split()
        if len(cells) >= 9 and cells[0] == "pipeline_gnp":
            numbers, verdict = line.rsplit("  ", 1)
            rows[cells[1]] = (numbers.split()[2:], verdict)
    return done, rows


def test_compare_gives_one_verdict_per_metric(tmp_path):
    old = _summary({
        "setup_s": _metric([1.45, 1.5, 1.55], 0.05),
        "latency_p50_ms": _metric([50, 51, 52], 0.02),
        "throughput_ops_s": _metric([19, 20, 21], 0.05),
        "peak_rss_mb": _metric([20, 24, 28], 0.3),
    }, {"graph.gen_s": 0.9, "flow.calls": 0})
    new = _summary({
        "setup_s": _metric([0.44, 0.45, 0.46], 0.02),
        "latency_p50_ms": _metric([69, 70, 71], 0.02),
        "throughput_ops_s": _metric([19.5, 20.2, 20.5], 0.04),
        "peak_rss_mb": _metric([19, 23, 29], 0.3),
    }, {"graph.gen_s": 0.3, "flow.calls": 0})
    old["workloads"]["woven_dense"] = old["workloads"]["pipeline_gnp"]
    done, rows = _run(tmp_path, old, new)
    assert done.returncode == 1, done.stderr
    assert rows["setup_s"] == (["1.5", "0.45", "0.300", "0.050", "0.020", "0.25"], "better")
    assert rows["latency_p50_ms"][1] == "worse"
    assert rows["throughput_ops_s"][1] == "within bound"
    assert rows["peak_rss_mb"][0][-1] == "0.10"
    assert rows["peak_rss_mb"][1] == "unresolved"
    assert "woven_dense        missing from the new summary" in done.stdout
    assert "exact_small        missing from the old summary" in done.stdout
    # per-layer ratios, with a dash where the old value is zero
    assert "graph.gen_s" in done.stdout and "0.333" in done.stdout
    layer = next(ln for ln in done.stdout.splitlines() if "flow.calls" in ln)
    assert layer.split()[-1] == "-"


def test_wide_spread_is_better_only_when_every_run_wins(tmp_path):
    old = _summary({m: _metric([10, 20, 30], 0.5) for m in
                    ("setup_s", "latency_p50_ms", "throughput_ops_s", "peak_rss_mb")}, {})
    new = _summary({
        "setup_s": _metric([4, 5, 9], 0.5),
        "latency_p50_ms": _metric([9, 19, 25], 0.5),
        "throughput_ops_s": _metric([31, 40, 50], 0.5),
        "peak_rss_mb": _metric([10, 20, 30], 0.5),
    }, {}, failed=2)
    done, rows = _run(tmp_path, old, new)
    assert done.returncode == 0, done.stderr
    assert {m: v for m, (_, v) in rows.items()} == {
        "setup_s": "better", "latency_p50_ms": "unresolved",
        "throughput_ops_s": "better", "peak_rss_mb": "unresolved",
    }
    assert "failed ops: old 0, new 2" in done.stdout


def test_per_layer_marks_only_counters_that_moved(tmp_path):
    """A count metric whose value differs between the files ends its row
    with ``changed``; equal counts and timings that moved carry no mark,
    and the end-to-end rows and exit status stay as they were."""
    e2e = {m: _metric([10, 10, 10], 0.0) for m in
           ("setup_s", "latency_p50_ms", "throughput_ops_s", "peak_rss_mb")}
    old = _summary(e2e, {"graph.gen_s": 0.9, "graph.calls": 7, "paths.calls": 6131,
                         "flow.calls": 0})
    new = _summary(e2e, {"graph.gen_s": 0.3, "graph.calls": 7, "paths.calls": 1801,
                         "flow.calls": 4})
    done, rows = _run(tmp_path, old, new)
    assert done.returncode == 0, done.stderr
    assert {v for _, v in rows.values()} == {"within bound"} and len(rows) == 4
    layer = {ln.split()[1]: ln.split()[2:] for ln in done.stdout.splitlines()
             if ln.startswith("pipeline_gnp") and len(ln.split()) < 9}
    assert layer["paths.calls"] == ["6131", "1801", "0.294", "changed"]
    assert layer["flow.calls"] == ["0", "4", "-", "changed"]
    assert layer["graph.calls"] == ["7", "7", "1.000"]
    assert layer["graph.gen_s"] == ["0.9", "0.3", "0.333"]


def _env(commit, source):
    return {"python": "3.11.7", "implementation": "CPython", "nproc": 2,
            "git_commit": commit, "source_sha256": source}


def test_header_names_each_files_environment(tmp_path):
    """One header line per file gives its commit, source hash, Python and
    nproc; a note flags two files that name one commit with different
    source hashes, and no other pair."""
    e2e = {m: _metric([10, 10, 10], 0.0) for m in
           ("setup_s", "latency_p50_ms", "throughput_ops_s", "peak_rss_mb")}
    old, new = _summary(e2e, {}), _summary(e2e, {})
    old["environment"], new["environment"] = _env("1ef9735", "733db87a"), _env("1ef9735", "dba9fda3")
    done, rows = _run(tmp_path, old, new)
    assert done.returncode == 0, done.stderr
    head = done.stdout.splitlines()[:3]
    assert head[0] == (f"old {tmp_path / 'old.json'}: git_commit 1ef9735, "
                       "source_sha256 733db87a, Python 3.11.7, nproc 2")
    assert head[1].startswith(f"new {tmp_path / 'new.json'}: git_commit 1ef9735, "
                              "source_sha256 dba9fda3")
    assert head[2].startswith("note: both name the same commit")
    assert len(rows) == 4
    # one commit and one hash; two commits; no commit recorded on either side
    for a, b in ((("1ef9735", "733db87a"), ("1ef9735", "733db87a")),
                 (("1ef9735", "733db87a"), ("22e87eb", "dba9fda3")),
                 ((None, "733db87a"), (None, "dba9fda3"))):
        old["environment"], new["environment"] = _env(*a), _env(*b)
        done, _ = _run(tmp_path, old, new)
        assert "note:" not in done.stdout
    del old["environment"], new["environment"]
    done, _ = _run(tmp_path, old, new)
    assert done.stdout.splitlines()[0].endswith(
        "git_commit -, source_sha256 -, Python -, nproc -")
