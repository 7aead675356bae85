"""The benchmark's own tests: shrunken runs of every workload, repeatable
counters, golden digests, and re-checks that reject corrupted outputs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (puts src/ on the path and imports the library)
import oracles as orc  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import minorforge as mf  # noqa: E402


def shrunk(name: str, window: int = 1):
    return dataclasses.replace(WORKLOADS[name], pass_size=2, window=window)


def first_output(name: str, seed: int = 0, i: int = 0):
    wl = WORKLOADS[name]
    inp = wl.make(seed, i + 1)[i]
    return wl, inp, wl.op(inp)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shrunken_run_completes_and_reports_every_metric(name):
    info = run.run_one(shrunk(name), seed=3, seconds=0.0, trace=False)
    assert info["correct"] and info["failed"] == 0 and info["ops"] >= 1
    assert set(info["metrics"]) == set(run.END_TO_END)
    for metric in info["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat_exactly(name):
    wl = shrunk(name)
    first = run.run_one(wl, seed=5, seconds=0.0, trace=True)
    second = run.run_one(wl, seed=5, seconds=0.0, trace=True)
    assert first["correct"] and second["correct"]
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "ratio")}
    counts.discard("trace.overhead_ratio")
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_traced_profile_puts_work_where_expected():
    woven = run.run_one(shrunk("woven_dense"), seed=2, seconds=0.0, trace=True)["metrics"]
    assert woven["extract.calls"]["value"] == 0
    assert woven["flow.setflow_builds"]["value"] > 0
    busy = woven["rooted.self_s"]["value"] + woven["flow.self_s"]["value"]
    assert busy > 0.5 * sum(woven[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    pipe = run.run_one(shrunk("pipeline_gnp"), seed=2, seconds=0.0, trace=True)["metrics"]
    extract = pipe["extract.self_s"]["value"]
    assert extract > 0.5 * sum(pipe[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)


def test_tracer_puts_the_library_back():
    before = {name: getattr(mf, name) for name in dir(mf)}
    setflow_init = mf.flow.SetFlow.__init__
    tracer = tracing.Tracer()
    k4 = mf.complete_graph(4)
    with tracer.active(0):
        assert mf.menger is not before["menger"]
        mf.menger(k4, {0}, {3}, 1)
    assert {name: getattr(mf, name) for name in dir(mf)} == before
    assert mf.flow.SetFlow.__init__ is setflow_init
    assert [s[0] for s in tracer.spans][:2] == ["paths.menger", "flow.SetFlow.__init__"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_digest_of_seed_zero_holds(name):
    got, problems = run.window_digest(name, 0)
    assert problems == []
    assert got == run.stored_digests()[name]["0"]


def test_digest_mismatch_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "stored_digests", lambda: {"exact_small": {"3": "0" * 64}})
    wl = dataclasses.replace(WORKLOADS["exact_small"], pass_size=20)
    info = run.run_one(wl, seed=3, seconds=0.0, trace=False)
    assert info["digest"] == "mismatch" and not info["correct"]


def test_recheck_rejects_a_disconnected_fragment():
    wl, inp, model = first_output("pipeline_gnp")
    assert wl.recheck(inp, model) == []
    g = inp[0]
    frag = sorted(model.fragments[-1])
    a = frag[0]
    b = next(v for v in frag if v != a and not g.has_edge(a, v))
    bad = mf.MinorModel(g, list(model.fragments[:-1]) + [frozenset((a, b))])
    assert any("not connected" in p for p in wl.recheck(inp, bad))


def test_recheck_rejects_a_cutset_missing_a_vertex():
    wl, inp, ((kappa, cut), kset, got) = first_output("connectivity_mix")
    assert wl.recheck(inp, ((kappa, cut), kset, got)) == []
    assert cut and wl.recheck(inp, ((kappa, cut[1:]), kset, got))
    whole_host = tuple(range(inp[1].n))  # chained blocks: only 2-connected
    assert wl.recheck(inp, ((kappa, cut), whole_host, got))


def test_recheck_rejects_a_linkage_meeting_the_model():
    wl, inp, (model, fam) = first_output("woven_dense")
    assert wl.recheck(inp, (model, fam)) == []
    g, (roots, srcs, tgts) = inp
    detour = next(v for v in sorted(model.fragments[0]) if v not in roots)
    paths = list(fam.paths)
    paths[0] = (paths[0][0], detour, paths[0][-1])
    bad = mf.PathFamily(paths, "linkage", pairs=fam.pairs)
    assert wl.recheck(inp, (model, bad))


def test_recheck_rejects_wrong_exact_answers():
    wl, inp, out = first_output("exact_small")
    assert wl.recheck(inp, out) == []
    chi, sep, link, hit, wov = out
    assert wl.recheck(inp, (chi + 1, sep, link, hit, wov))
    assert wl.recheck(inp, (chi, (False, None), link, hit, wov)) or not sep[0]
    bogus = dataclasses.replace(hit, covered_failures=hit.covered_failures + 1)
    assert wl.recheck(inp, (chi, sep, link, bogus, wov))


def test_woven_oracle_refutes_a_false_proof():
    g = mf.graph_from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    report = mf.check_wovenness(g, Fraction(1, 2), 2, 1)
    assert report.verdict == "refuted-with-counterexample"
    adj = orc.adjacency(g)
    assert orc.woven_report_problems(adj, Fraction(1, 2), 2, 1, report) == []
    bad = report.counterexample
    faked = dataclasses.replace(report, verdict="proven", counterexample=None,
                                records=report.records[:-1])
    assert orc.woven_report_problems(adj, Fraction(1, 2), 2, 1, faked)
    pairs = tuple(zip(bad.sources, bad.targets))
    assert not orc.woven_witness_exists(adj, Fraction(1, 2), bad.roots, pairs)
    assert orc.woven_witness_exists(orc.adjacency(mf.complete_graph(6)), Fraction(1, 2),
                                    bad.roots, pairs)


def test_oracles_match_small_cases():
    cycle5 = orc.adjacency(mf.graph_from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert orc.chromatic(cycle5)[0] == 3
    chi = orc.all_subset_chromatic(cycle5)
    assert chi[0b11111] == 3 and chi[0b00111] == 2 and chi[0b00101] == 1
    k5 = orc.adjacency(mf.complete_graph(5))
    assert orc.disjoint_path_count(cycle5, 0, 2, 5) == 2
    assert orc.k_connected_problems(k5, range(5), 4) == []
    assert orc.k_connected_problems(cycle5, range(5), 3)
    assert orc.linkage_exists(cycle5, [(0, 1), (2, 3)])
    assert not orc.linkage_exists(cycle5, [(0, 2), (1, 3)])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
