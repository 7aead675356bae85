from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from minorforge.cli import _instance_seeds, main
from minorforge.graphio import dump_report, stable_view


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    for out in (a, b):
        code, _, _ = _run(capsys, "gen", "--n", "20", "--p", "2/3",
                          "--seed", "9", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header.startswith("p 20 ")


def test_gen_complete_and_bipartite(tmp_path, capsys):
    out = tmp_path / "k.graph"
    code, _, _ = _run(capsys, "gen", "--complete", "5", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("p 5 10\n")
    out2 = tmp_path / "b.graph"
    code, _, _ = _run(capsys, "gen", "--bipartite", "3", "4", "--p", "1",
                      "--out", str(out2))
    assert code == 0
    lines = out2.read_text().splitlines()
    assert lines[0] == "p 7 12"
    assert lines[1] == "b 3"


def test_gen_usage_errors(capsys):
    assert _run(capsys, "gen")[0] == 1                       # no source picked
    assert _run(capsys, "gen", "--n", "5", "--complete", "5")[0] == 1
    assert _run(capsys, "gen", "--complete", "-3")[0] == 1
    assert _run(capsys, "gen", "--n", "5", "--p", "7/2")[0] == 1
    assert _run(capsys, "gen", "--n", "5", "--p", "0.5")[0] == 1  # not a rational


def test_extract_verify_round_trip(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    model = tmp_path / "m.model"
    _run(capsys, "gen", "--n", "30", "--p", "2/3", "--seed", "7",
         "--out", str(graph))
    code, out, _ = _run(capsys, "extract", "mader", str(graph), "--d", "6",
                        "--out", str(model))
    assert code == 0
    assert "result: ok" in out
    assert model.read_text().startswith("model ")
    code, out, _ = _run(capsys, "verify", str(graph), str(model),
                        "--eps", "1/4", "--t", "6")
    assert code == 0
    assert "result: valid" in out


def test_verify_flags_invalid_model(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p 3 2\ne 0 1\ne 1 2\n")
    model = tmp_path / "m.model"
    model.write_text("model 2\nf 0 0\nf 1 2\n")  # pattern has no edge
    code, out, _ = _run(capsys, "verify", str(graph), str(model),
                        "--eps", "1/2", "--t", "2")
    assert code == 2
    assert "density below the threshold" in out
    overlap = tmp_path / "o.model"
    overlap.write_text("model 2\nf 0 0 1\nf 1 1 2\n")
    code, out, _ = _run(capsys, "verify", str(graph), str(overlap),
                        "--eps", "1/2", "--t", "2")
    assert code == 2
    assert "invalid" in out


def test_verify_refuses_t_below_two_and_judges_a_short_pattern(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p 3 3\ne 0 1\ne 0 2\ne 1 2\n")
    model = tmp_path / "m.model"
    model.write_text("model 1\nf 0 0 1\n")
    for t in ("1", "0", "-3"):
        code, out, err = _run(capsys, "verify", str(graph), str(model),
                              "--eps", "1/2", "--t", t)
        assert (code, out, err) == (1, "", "error: --t must be at least 2\n")
    # a one-fragment pattern is judged against t, not refused by the predicate
    code, out, _ = _run(capsys, "verify", str(graph), str(model), "--eps", "1/2", "--t", "2")
    assert code == 2
    assert "result: invalid" in out
    assert "pattern order 1 differs from t" in out


def test_verify_json_format(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p 3 3\ne 0 1\ne 0 2\ne 1 2\n")
    model = tmp_path / "m.model"
    model.write_text("model 2\nf 0 0\nf 1 1\n")
    code, out, _ = _run(capsys, "verify", str(graph), str(model),
                        "--eps", "1/2", "--t", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "valid"
    assert payload["density"] == "1"


def test_paths_linkage_and_separation(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p 5 4\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")  # a path host
    code, out, _ = _run(capsys, "paths", str(graph), "--pairs", "0:4")
    assert code == 0
    assert "result: paths" in out
    code, out, _ = _run(capsys, "paths", str(graph), "--pairs", "0:4,1:3")
    assert code == 0
    assert "not-linkable" in out
    code, out, _ = _run(capsys, "paths", str(graph), "--s", "0", "--t", "4",
                        "--k", "2")
    assert code == 0
    assert "result: separation" in out
    assert "order: 1" in out
    code, out, _ = _run(capsys, "paths", str(graph), "--s", "0")
    assert code == 1  # incomplete query


def test_paths_out_file(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p 3 3\ne 0 1\ne 0 2\ne 1 2\n")
    out_file = tmp_path / "answer.txt"
    code, out, _ = _run(capsys, "paths", str(graph), "--pairs", "0:2",
                        "--out", str(out_file))
    assert code == 0
    assert "result: paths" in out_file.read_text()


def test_export_dot(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    model = tmp_path / "m.model"
    graph.write_text("p 3 3\ne 0 1\ne 0 2\ne 1 2\n")
    model.write_text("model 2\nf 0 0\nf 1 1\n")
    dot = tmp_path / "g.dot"
    code, _, _ = _run(capsys, "export-dot", str(graph), "--model", str(model),
                      "--out", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph G {")
    assert "cluster_0" in text


def test_io_failures_exit_one(tmp_path, capsys):
    missing = tmp_path / "missing.graph"
    assert _run(capsys, "verify", str(missing), str(missing),
                "--eps", "1/2", "--t", "2")[0] == 1
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 1\ne 1 1\n")
    assert _run(capsys, "paths", str(bad), "--pairs", "0:1")[0] == 1
    assert _run(capsys, "nonsense-command")[0] == 1


def test_extract_refuses_fewer_than_one_attempt(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    _run(capsys, "gen", "--n", "120", "--p", "1/2", "--seed", "7", "--out", str(graph))
    argv = ("extract", "dense-minor", str(graph), "--eps", "1/10", "--t", "4", "--c-scale", "6")
    for attempts in ("0", "-1"):
        assert _run(capsys, *argv, "--attempts", attempts) == (
            1, "", "error: --attempts must be at least 1\n")
    code, out, _ = _run(capsys, *argv, "--attempts", "1")
    assert code == 0 and "result: ok" in out


def test_extract_dense_minor_bipartite(tmp_path, capsys):
    graph = tmp_path / "b.graph"
    _run(capsys, "gen", "--bipartite", "40", "40", "--p", "4/5", "--seed", "2",
         "--out", str(graph))
    code, out, err = _run(capsys, "extract", "dense-minor-bipartite", str(graph),
                          "--eps", "1/5", "--t", "3", "--c-scale", "1/8", "--seed", "1")
    assert (code, err) == (0, "")
    assert "result: ok\nfragments_count: 3\n" in out


def test_extract_dense_minor_bipartite_needs_a_bipartition(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p 3 2\ne 0 1\ne 1 2\n")
    assert _run(capsys, "extract", "dense-minor-bipartite", str(graph),
                "--eps", "1/5", "--t", "3") == (
        1, "", "error: input graph lacks a bipartition header\n")


def test_extract_dense_minor_bipartite_without_an_anchor(tmp_path, capsys):
    graph = tmp_path / "h.graph"
    _run(capsys, "gen", "--bipartite", "40", "40", "--p", "1/2", "--seed", "3",
         "--out", str(graph))
    assert _run(capsys, "extract", "dense-minor-bipartite", str(graph),
                "--eps", "1/5", "--t", "3", "--c-scale", "1/100") == (
        2, "", "construction failed: HypothesisViolatedError: "
               "no vertex on the larger side has 36 neighbors\n")


def test_construction_failure_exits_two(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("p 4 3\ne 0 1\ne 1 2\ne 2 3\n")
    code, out, err = _run(capsys, "extract", "mader", str(graph), "--d", "8")
    assert code == 2
    assert "failed" in err


def _experiment_config(tmp_path, name, out_name):
    cfg = {
        "ensemble": {"kind": "gnp", "n": 24, "count": 2, "p": ["1"]},
        "eps": ["1/5"],
        "t": [3],
        "c_scale": "1/4",
        "seed": 3,
        "out": str(tmp_path / out_name),
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_experiment_report_and_csv(tmp_path, capsys):
    cfg = _experiment_config(tmp_path, "cfg.json", "rep.json")
    code, out, _ = _run(capsys, "experiment", str(cfg))
    assert code == 0
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["schema"] == 1
    assert len(report["records"]) == 2
    assert report["aggregates"]["total_successes"] == 2
    csv_text = (tmp_path / "rep.csv").read_text().splitlines()
    assert csv_text[0].startswith("cell,")
    assert len(csv_text) == 2  # header plus the single cell


def test_experiment_on_a_bipartite_ensemble(tmp_path, capsys):
    path = _experiment_config(tmp_path, "cfg.json", "rep.json")
    cfg = json.loads(path.read_text())
    cfg["ensemble"] = {"kind": "bipartite", "a": 40, "b": 40, "count": 2, "p": ["4/5"]}
    cfg["c_scale"] = "1/8"
    cfg["seed"] = 1
    path.write_text(json.dumps(cfg))
    assert _run(capsys, "experiment", str(path)) == (0, "", "")
    report = json.loads((tmp_path / "rep.json").read_text())
    assert report["config"] == {
        "kind": "bipartite", "a": 40, "b": 40, "count": 2, "p": ["4/5"],
        "eps": ["1/5"], "t": [3], "c_scale": "1/8", "seed": 1,
    }
    assert [r["success"] for r in report["records"]] == [True, True]
    assert all(len(r["fragments"]) == 3 for r in report["records"])


def test_experiment_reports_are_stable(tmp_path, capsys):
    cfg1 = _experiment_config(tmp_path, "c1.json", "r1.json")
    cfg2 = _experiment_config(tmp_path, "c2.json", "r2.json")
    assert _run(capsys, "experiment", str(cfg1))[0] == 0
    assert _run(capsys, "experiment", str(cfg2))[0] == 0
    r1 = json.loads((tmp_path / "r1.json").read_text())
    r2 = json.loads((tmp_path / "r2.json").read_text())
    assert r1 != r2 or r1["generated_at"] == r2["generated_at"]
    assert dump_report(stable_view(r1)) == dump_report(stable_view(r2))


def test_experiment_seeds_differ_across_masters():
    """Masters 0-63 over 8 cells of 64 instances derive 65,536 distinct graph
    and build seeds; untagged, cell 0 swapped master and instance."""
    seeds = [
        seed
        for master in range(64)
        for ci in range(8)
        for ii in range(64)
        for seed in _instance_seeds(master, ci, ii)
    ]
    assert len(set(seeds)) == len(seeds) == 65_536


def _mutated(tmp_path, key, value):
    """The valid experiment config with ``key`` set to ``value``: an
    ensemble key for n, a, b, count and p (a bipartite ensemble for a and
    b), a top-level key otherwise; ``...`` drops the key."""
    cfg = json.loads(_experiment_config(tmp_path, "cfg.json", "rep.json").read_text())
    if key in ("a", "b"):
        cfg["ensemble"] = {"kind": "bipartite", "a": 12, "b": 12, "count": 2, "p": ["1"]}
    where = cfg["ensemble"] if key in ("n", "a", "b", "count", "p") else cfg
    if value is ...:
        del where[key]
    else:
        where[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _refused(tmp_path, capsys, key, value):
    code, out, err = _run(capsys, "experiment", str(_mutated(tmp_path, key, value)))
    assert code == 1, (key, value, out, err)
    assert err.startswith(f"error: config: {key} "), (key, value, err)
    assert "Traceback" not in err and not out
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("key, value", [
    ("out", 2), ("out", 5), ("out", ["r.json"]), ("out", True),
    ("n", 10.7), ("n", True), ("n", "10"), ("n", ...),
    ("a", 4.5), ("b", False), ("b", ...),
    ("count", 2.0), ("count", False), ("count", -1),
    ("seed", 3.5), ("seed", True), ("seed", -1),
    ("t", [3.0]), ("t", [True]), ("t", 3.5),
    ("attempts", 0), ("attempts", -2), ("attempts", 1.5), ("attempts", True),
    ("c_scale", "0"), ("c_scale", 0), ("c_scale", "-1/4"), ("c_scale", 0.25),
    ("c_scale", True), ("c_scale", None),
    ("p", ["3/2"]), ("p", [0.5]), ("eps", [0.2]), ("eps", ["x"]),
    ("eps", ["0"]), ("eps", ["3/2"]), ("eps", ["1"]), ("eps", ["1/10", "-1/2"]),
    ("t", [0]), ("t", [-2]), ("t", [1]), ("t", [3, 1]),
    ("n", -1), ("a", -3), ("b", -1),
    ("eps", ["1/3"]), ("eps", ["1/2"]),
])
def test_experiment_config_names_the_bad_key(tmp_path, capsys, key, value):
    """Every key is checked against the JSON type it needs: a wrong type,
    a float or bool for an integer, or a value out of range exits 1 with
    a line naming the key, before anything is written."""
    _refused(tmp_path, capsys, key, value)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["n", "count", "seed", "t", "attempts"]),
       st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
                 st.text(max_size=4), st.none()))
def test_experiment_config_refuses_non_integers(tmp_path, capsys, key, value):
    _refused(tmp_path, capsys, key, value)


def test_experiment_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, _, err = _run(capsys, "experiment", str(path))
    assert code == 1
    path.write_text("not json")
    assert _run(capsys, "experiment", str(path))[0] == 1
    assert _run(capsys, "experiment", str(tmp_path / "missing.json"))[0] == 1
