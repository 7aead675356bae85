"""``scripts/ab_pairs.py``'s summary of alternating benchmark pairs, on
synthetic run results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)
_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT.with_name("bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

SPECS = [{"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
         {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]


def _result(throughput, latency, failed=0, correct=True):
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "throughput_ops_s": {"value": throughput, "unit": "1/s"},
        "latency_p50_ms": {"value": latency, "unit": "ms"},
    }}


def _rows(lines):
    """Each metric's columns up to "beyond parent IQR", then its verdict."""
    rows = {}
    for ln in lines[1:-1]:
        name, *cols = ln.split()
        rows[name] = cols[:9] + [" ".join(cols[9:])]
    return rows


def test_summary_gives_quartiles_wins_and_ratio():
    parent = [_result(t, l) for t, l in ((100, 10), (104, 9), (96, 11), (102, 10), (98, 12))]
    change = [_result(t, l) for t, l in ((130, 8), (125, 8.5), (99, 9), (128, 10), (120, 13))]
    lines = ab_pairs.summarise(list(zip(parent, change)), SPECS)
    rows = _rows(lines)
    # exclusive quartiles of 96, 98, 100, 102, 104 are 97 and 103
    assert rows["throughput_ops_s"] == ["97", "100", "103", "109.5", "125", "129",
                                        "5/5", "1.250", "yes", "better"]
    # latency: lower is better and a tie (10 -> 10) is not a win; the
    # medians 10 -> 9 differ by less than the parent's quartiles 9.5-11.5,
    # and the change's spread (11.5 - 8.25) / 9 exceeds the bound
    assert rows["latency_p50_ms"][6:] == ["3/5", "0.900", "no", "unresolved"]
    assert lines[-1] == "failed ops: parent 0, change 0; incorrect runs: parent 0, change 0"


def test_summary_within_the_parent_spread_and_failures():
    """A gap inside the parent's inter-quartile range is not beyond it; one
    pair gives its own values as all three quartiles; failed ops and
    incorrect runs are summed per side."""
    pairs = [(_result(100, 10), _result(101, 10.1)), (_result(80, 12), _result(79, 12))]
    rows = _rows(ab_pairs.summarise(pairs, SPECS))
    assert rows["throughput_ops_s"][6:] == ["1/2", "1.000", "no", "unresolved"]
    one = ab_pairs.summarise([(_result(100, 10, failed=2), _result(90, 11, correct=False))], SPECS)
    assert _rows(one)["throughput_ops_s"] == ["100", "100", "100", "90", "90", "90",
                                              "0/1", "0.900", "yes", "within bound"]
    assert one[-1] == "failed ops: parent 2, change 0; incorrect runs: parent 0, change 1"


def test_held_out_seeds_get_their_own_table():
    """Seeds 1-10: the full table, then one over seeds 7-10 alone; a range
    that misses any of 7-10 gets no second table."""
    seeds = list(range(1, 11))
    pairs = [(_result(100, 10), _result(100 + 10 * (s >= 7), 10 - (s >= 7))) for s in seeds]
    lines = ab_pairs.report(seeds, pairs, SPECS)
    full = ab_pairs.summarise(pairs, SPECS)
    assert lines[:len(full)] == full
    assert lines[len(full)] == "held-out seeds 7-10: 4 pairs"
    held = lines[len(full) + 1:]
    assert held == ab_pairs.summarise(pairs[6:], SPECS)
    assert _rows(held)["throughput_ops_s"][6:] == ["4/4", "1.100", "yes", "better"]
    assert _rows(held)["latency_p50_ms"][6:] == ["4/4", "0.900", "yes", "better"]
    assert _rows(full)["throughput_ops_s"][6] == "4/10"
    assert ab_pairs.report(seeds[:9], pairs[:9], SPECS) == ab_pairs.summarise(pairs[:9], SPECS)
    assert ab_pairs.report([7, 8, 9, 10], pairs[6:], SPECS)[-len(held):] == held


def test_verdict_is_bench_compares_on_each_sides_runs():
    """The verdict column is ``bench_compare.verdict`` on each side's median,
    relative inter-quartile range and values, under the metric's bound:
    here worse, unresolved, better and within bound."""
    old = [100, 101, 99, 100, 102, 98]
    cases = {
        "worse": [70, 71, 69, 70, 72, 68],
        "unresolved": [100, 140, 60, 100, 150, 50],
        "better": [110, 111, 109, 110, 112, 108],
        "within bound": [101, 100, 99, 102, 100, 98],
    }
    for want, new in cases.items():
        pairs = [(_result(o, 10), _result(n, 10)) for o, n in zip(old, new)]
        got = _rows(ab_pairs.summarise(pairs, SPECS))["throughput_ops_s"][-1]
        summary = ab_pairs.as_summary(old), ab_pairs.as_summary(new)
        assert got == want == bench_compare.verdict(*summary, "higher", 0.25)
    # the bound is each metric's own: a 30% loss is within a bound of 0.5
    pairs = [(_result(o, 10), _result(n, 10)) for o, n in zip(old, cases["worse"])]
    loose = [dict(SPECS[0], bound=0.5)]
    assert _rows(ab_pairs.summarise(pairs, loose))["throughput_ops_s"][-1] == "within bound"
    # exclusive quartiles of 1, 2, 3, 4 are 1.25 and 3.75, the median 2.5
    assert ab_pairs.as_summary([1, 2, 3, 4]) == {"median": 2.5, "spread": 1.0, "values": [1, 2, 3, 4]}


def test_seed_ranges():
    assert ab_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert ab_pairs.parse_seeds("7") == [7]


def test_a_relative_checkout_is_found_from_the_callers_directory(tmp_path, monkeypatch):
    """The run's working directory is the checkout, so a relative checkout
    must be resolved once, not joined to itself: ``co/perfbench/run.py``,
    never ``co/co/perfbench/run.py``."""
    script = tmp_path / "co" / "perfbench" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text("import json, sys\nprint(json.dumps({'metrics': {}, 'argv': sys.argv[1:]}))\n")
    monkeypatch.chdir(tmp_path)
    got = ab_pairs.run_once("co", "exact_small", 3, 0.5)
    assert got["argv"] == ["--workload", "exact_small", "--seed", "3", "--seconds", "0.5",
                           "--trace", "0"]


def test_all_runs_each_benchmark_workload_in_order(monkeypatch, capsys):
    """``--workload all`` runs the workloads of BENCHMARK.json in their
    order, each over every seed in alternating order, and prints each one's
    header, table and held-out table, a blank line between workloads."""
    with open(SCRIPT.parents[1] / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((workload, seed, checkout))
        base = 100 + 10 * names.index(workload) + seed
        faster = checkout == "change"
        metrics = {s["name"]: {"value": base * (0.9 if faster else 1.0), "unit": s["unit"]}
                   for s in bench["end_to_end"]}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    assert ab_pairs.main(["parent", "change", "--workload", "all",
                          "--seeds", "1-10", "--seconds", "2"]) == 0
    want_calls = [(w, seed, side) for w in names for seed in range(1, 11)
                  for side in (("parent", "change") if seed % 2 else ("change", "parent"))]
    assert calls == want_calls
    blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert len(blocks) == len(names)
    for name, block in zip(names, blocks):
        lines = block.split("\n")
        assert lines[0] == f"{name}: 10 pairs, 2 s per run"
        runs = [fake_run(side, name, seed, 2) for seed in range(1, 11)
                for side in ("parent", "change")]
        pairs = list(zip(runs[0::2], runs[1::2]))
        assert lines[1:] == ab_pairs.report(list(range(1, 11)), pairs, bench["end_to_end"])
        assert "held-out seeds 7-10: 4 pairs" in lines
    # one named workload runs alone, as before
    calls.clear()
    ab_pairs.main(["parent", "change", "--workload", names[-1], "--seeds", "7", "--seconds", "2"])
    assert calls == [(names[-1], 7, "parent"), (names[-1], 7, "change")]
    assert capsys.readouterr().out.startswith(f"{names[-1]}: 1 pairs, 2 s per run\n")
