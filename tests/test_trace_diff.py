"""``scripts/trace_diff.py``'s comparison of traced work counters, on
synthetic run results."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_diff.py"
_spec = importlib.util.spec_from_file_location("trace_diff", SCRIPT)
trace_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_diff)


def _result(**values):
    return {"correct": True, "metrics": {
        name.replace("__", "."): {"value": value, "unit": "count"}
        for name, value in values.items()
    }}


BASE = dict(flow__calls=18, flow__setflow_builds=6, rooted__separation_found_ratio=0.5,
            flow__self_s=0.002, graph__gen_s=0.01, model__validate_s=0.0001,
            trace__overhead_ratio=1.4)


def test_timings_and_the_tracer_overhead_are_left_out():
    assert trace_diff.work_counters(_result(**BASE)) == {
        "flow.calls": 18, "flow.setflow_builds": 6, "rooted.separation_found_ratio": 0.5}
    timed = dict(BASE, flow__self_s=0.5, graph__gen_s=1.0, model__validate_s=0.3,
                 trace__overhead_ratio=2.0)
    assert trace_diff.differences(_result(**BASE), _result(**timed)) == []


def test_each_differing_counter_is_one_line_by_name():
    moved = dict(BASE, flow__setflow_builds=2, rooted__separation_found_ratio=0.25)
    lines = trace_diff.differences(_result(**BASE), _result(**moved))
    assert [line.split() for line in lines] == [
        ["flow.setflow_builds", "6", "->", "2"],
        ["rooted.separation_found_ratio", "0.5", "->", "0.25"],
    ]


def test_a_counter_on_one_side_only_differs():
    fewer = {k: v for k, v in BASE.items() if k != "flow__calls"}
    lines = trace_diff.differences(_result(**fewer), _result(**BASE))
    assert [line.split() for line in lines] == [["flow.calls", "-", "->", "18"]]
    assert [line.split() for line in trace_diff.differences(_result(**BASE), _result(**fewer))
            ] == [["flow.calls", "18", "->", "-"]]


def test_exit_status_is_one_on_any_difference(monkeypatch, capsys):
    runs = {}
    monkeypatch.setattr(trace_diff, "run_traced", lambda checkout, workload, seed: runs[checkout])
    runs.update(parent=_result(**BASE), change=_result(**dict(BASE, flow__self_s=9.0)))
    assert trace_diff.main(["parent", "change", "--workload", "woven_dense", "--seed", "5"]) == 0
    assert capsys.readouterr().out == "woven_dense seed 5: 3 work counters, 0 differ\n"
    runs["change"] = _result(**dict(BASE, flow__calls=17))
    assert trace_diff.main(["parent", "change", "--workload", "woven_dense", "--seed", "5"]) == 1
    assert capsys.readouterr().out.splitlines()[1].split() == ["flow.calls", "18", "->", "17"]


def test_a_relative_checkout_is_found_from_the_callers_directory(tmp_path, monkeypatch):
    """The run's working directory is the checkout, so a relative checkout
    must be resolved once, not joined to itself: ``co/perfbench/run.py``,
    never ``co/co/perfbench/run.py``."""
    script = tmp_path / "co" / "perfbench" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text("import json, sys\nprint(json.dumps({'metrics': {}, 'argv': sys.argv[1:]}))\n")
    monkeypatch.chdir(tmp_path)
    got = trace_diff.run_traced("co", "woven_dense", 5)
    assert got["argv"] == ["--workload", "woven_dense", "--seed", "5", "--seconds", "3",
                           "--trace", "1"]
