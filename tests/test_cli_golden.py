"""The command line's bytes, pinned: a fixed battery of invocations whose
exit codes, standard output, standard error, warnings and written files
must hash to the digests in ``cli_golden.json``.

The battery runs in order in one empty directory with relative file names,
so later invocations read what earlier ones wrote and no message carries a
temporary path.  A written file is one that is new or whose bytes changed,
so every invocation writes under names of its own.  Reports are hashed
through ``stable_view``, which drops the wall-clock fields.  For the
invocations that argparse rejects only the exit code is pinned: argparse's
text depends on the terminal width and the Python version.

After a deliberate change to the command line's output, rewrite the digests
with ``PYTHONPATH=src python tests/test_cli_golden.py`` and name the entries
that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

from minorforge.cli import main
from minorforge.graphio import dump_report, stable_view

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

_CONFIG = {"eps": ["1/5"], "t": [3], "c_scale": "1/4", "seed": 3}
_GNP = {"kind": "gnp", "n": 24, "count": 2, "p": ["1", "4/5"]}
_BIPARTITE = {"kind": "bipartite", "a": 40, "b": 40, "count": 2, "p": ["4/5", "1/2"]}

# files the battery starts from, beside the graphs its gen lines write
INPUTS = {
    "path.graph": "p 5 4\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n",
    "tri.graph": "p 3 3\ne 0 1\ne 0 2\ne 1 2\n",
    "bad.graph": "p 2 1\ne 1 1\n",
    "pair.model": "model 2\nf 0 0\nf 1 1\n",
    "overlap.model": "model 2\nf 0 0 1\nf 1 1 2\n",
    "empty.json": "{}",
    "broken.json": "not json",
    "gnp.json": json.dumps({**_CONFIG, "ensemble": _GNP, "out": "gnp.rep.json"}),
    "bip.json": json.dumps({**_CONFIG, "ensemble": _BIPARTITE, "c_scale": "1/8",
                            "out": "bip.rep.json"}),
    "nocells.json": json.dumps({**_CONFIG, "ensemble": _GNP, "eps": [],
                                "out": "nocells.rep.json"}),
    "budget.json": json.dumps({**_CONFIG, "ensemble": {**_GNP, "n": 30}, "attempts": 2,
                               "t": [3, 4], "out": "ignored.rep.json"}),
    "eps-half.json": json.dumps({**_CONFIG, "ensemble": _GNP, "eps": ["1/2"],
                                 "out": "half.rep.json"}),
    "eps-big.json": json.dumps({**_CONFIG, "ensemble": _GNP, "eps": ["3/2"],
                                "out": "big.rep.json"}),
}

DENSE = ("--eps", "1/10", "--t", "4", "--c-scale", "6")
BIP = ("--eps", "1/5", "--t", "3", "--c-scale", "1/8")

# (name, argv); a name ending in "!" pins only the exit code
BATTERY = [
    ("gen-small", ("gen", "--n", "30", "--p", "2/3", "--seed", "7", "--out", "small.graph")),
    ("gen-gnp", ("gen", "--n", "120", "--p", "1/2", "--seed", "7", "--out", "g.graph")),
    ("gen-complete", ("gen", "--complete", "8", "--out", "k8.graph")),
    ("gen-bipartite", ("gen", "--bipartite", "40", "40", "--p", "4/5", "--seed", "2",
                       "--out", "b.graph")),
    ("gen-bipartite-sparse", ("gen", "--bipartite", "40", "40", "--p", "1/2", "--seed", "3",
                              "--out", "h.graph")),
    ("gen-stdout", ("gen", "--n", "12", "--p", "1/3", "--seed", "4")),
    ("gen-bipartite-stdout", ("gen", "--bipartite", "3", "4", "--p", "1")),
    ("gen-no-mode", ("gen",)),
    ("gen-two-modes", ("gen", "--n", "5", "--complete", "5")),
    ("gen-negative-complete", ("gen", "--complete", "-3")),
    ("gen-negative-side", ("gen", "--bipartite", "-1", "2")),
    ("gen-negative-n", ("gen", "--n", "-1")),
    ("gen-p-above-one", ("gen", "--n", "5", "--p", "7/2")),
    ("gen-float-p!", ("gen", "--n", "5", "--p", "0.5")),
    ("gen-negative-seed!", ("gen", "--n", "5", "--seed", "-1")),
    ("mader", ("extract", "mader", "small.graph", "--d", "6", "--out", "mader.model")),
    ("mader-json", ("extract", "mader", "small.graph", "--d", "6", "--format", "json")),
    ("dense-connected", ("extract", "dense-connected", "small.graph", "--d", "6")),
    ("dense-connected-json", ("extract", "dense-connected", "small.graph", "--d", "6",
                              "--format", "json", "--out", "dc.model")),
    ("dense-minor", ("extract", "dense-minor", "g.graph", *DENSE, "--seed", "3",
                     "--attempts", "8", "--out", "dense.model")),
    ("dense-minor-json", ("extract", "dense-minor", "g.graph", *DENSE, "--format", "json")),
    ("dense-minor-complete", ("extract", "dense-minor", "k8.graph", "--eps", "1/5",
                              "--t", "3", "--c-scale", "1/4")),
    ("dense-minor-default-scale", ("extract", "dense-minor", "g.graph", "--eps", "1/10",
                                   "--t", "4")),
    ("dense-minor-eps-half", ("extract", "dense-minor", "g.graph", "--eps", "1/2",
                              "--t", "4", "--c-scale", "6")),
    ("dense-minor-t-one", ("extract", "dense-minor", "g.graph", "--eps", "1/10",
                           "--t", "1", "--c-scale", "6")),
    ("dense-minor-zero-scale", ("extract", "dense-minor", "g.graph", "--eps", "1/10",
                                "--t", "4", "--c-scale", "0")),
    ("dense-minor-zero-attempts", ("extract", "dense-minor", "g.graph", *DENSE,
                                   "--attempts", "0")),
    ("dense-minor-one-attempt", ("extract", "dense-minor", "g.graph", *DENSE,
                                 "--attempts", "1")),
    ("dense-minor-no-eps", ("extract", "dense-minor", "g.graph", "--t", "4")),
    ("dense-minor-on-bipartite", ("extract", "dense-minor", "b.graph", *BIP)),
    ("bipartite", ("extract", "dense-minor-bipartite", "b.graph", *BIP, "--seed", "1",
                   "--out", "bip.model")),
    ("bipartite-json", ("extract", "dense-minor-bipartite", "b.graph", *BIP, "--seed", "1",
                        "--format", "json")),
    ("bipartite-budget", ("extract", "dense-minor-bipartite", "b.graph", *BIP,
                          "--attempts", "2", "--seed", "5")),
    ("bipartite-no-anchor", ("extract", "dense-minor-bipartite", "h.graph", "--eps", "1/5",
                             "--t", "3", "--c-scale", "1/100")),
    ("bipartite-eps-half", ("extract", "dense-minor-bipartite", "b.graph", "--eps", "1/2",
                            "--t", "3", "--c-scale", "1/8")),
    ("bipartite-no-header", ("extract", "dense-minor-bipartite", "small.graph", *BIP)),
    ("bipartite-no-t", ("extract", "dense-minor-bipartite", "b.graph", "--eps", "1/5")),
    ("bipartite-zero-attempts", ("extract", "dense-minor-bipartite", "b.graph", *BIP,
                                 "--attempts", "0")),
    ("kconn", ("extract", "kconn", "small.graph", "--k", "3")),
    ("kconn-json", ("extract", "kconn", "small.graph", "--k", "3", "--format", "json",
                    "--out", "kconn.model")),
    ("kconn-no-k", ("extract", "kconn", "small.graph")),
    ("mader-no-d", ("extract", "mader", "small.graph")),
    ("dense-connected-no-d", ("extract", "dense-connected", "small.graph")),
    ("mader-too-deep", ("extract", "mader", "small.graph", "--d", "40")),
    ("extract-missing-file", ("extract", "mader", "missing.graph", "--d", "3")),
    ("extract-bad-mode!", ("extract", "nonsense", "small.graph")),
    ("extract-float-eps!", ("extract", "dense-minor", "g.graph", "--eps", "0.1", "--t", "4")),
    ("verify-mader", ("verify", "small.graph", "mader.model", "--eps", "1/4", "--t", "6")),
    ("verify-mader-json", ("verify", "small.graph", "mader.model", "--eps", "1/4", "--t", "6",
                           "--format", "json")),
    ("verify-dense", ("verify", "g.graph", "dense.model", "--eps", "1/10", "--t", "4")),
    ("verify-bipartite", ("verify", "b.graph", "bip.model", "--eps", "1/5", "--t", "3",
                          "--format", "json")),
    ("verify-wrong-t", ("verify", "small.graph", "mader.model", "--eps", "1/4", "--t", "5")),
    ("verify-overlap", ("verify", "tri.graph", "overlap.model", "--eps", "1/2", "--t", "2")),
    ("verify-missing", ("verify", "missing.graph", "missing.graph", "--eps", "1/2",
                        "--t", "2")),
    ("verify-eps-zero", ("verify", "tri.graph", "pair.model", "--eps", "0", "--t", "2")),
    ("verify-eps-one", ("verify", "tri.graph", "pair.model", "--eps", "1", "--t", "2")),
    ("verify-eps-big", ("verify", "tri.graph", "pair.model", "--eps", "3/2", "--t", "2")),
    ("verify-eps-negative", ("verify", "tri.graph", "pair.model", "--eps=-1/2", "--t", "2")),
    ("verify-t-one", ("verify", "tri.graph", "pair.model", "--eps", "1/2", "--t", "1")),
    ("verify-t-negative", ("verify", "tri.graph", "pair.model", "--eps", "1/2", "--t", "-3")),
    ("paths-linkage", ("paths", "path.graph", "--pairs", "0:4")),
    ("paths-not-linkable", ("paths", "path.graph", "--pairs", "0:4,1:3")),
    ("paths-separation", ("paths", "path.graph", "--s", "0", "--t", "4", "--k", "2",
                          "--format", "json")),
    ("paths-menger", ("paths", "small.graph", "--s", "0,1", "--t", "8,9", "--k", "3",
                      "--out", "paths.txt")),
    ("paths-incomplete", ("paths", "path.graph", "--s", "0")),
    ("paths-bad-graph", ("paths", "bad.graph", "--pairs", "0:1")),
    ("dot-model", ("export-dot", "g.graph", "--model", "dense.model", "--out", "g.dot")),
    ("dot-stdout", ("export-dot", "tri.graph", "--model", "pair.model")),
    ("experiment-gnp", ("experiment", "gnp.json")),
    ("experiment-bipartite", ("experiment", "bip.json")),
    ("experiment-no-cells", ("experiment", "nocells.json")),
    ("experiment-budget", ("experiment", "budget.json", "--out", "budget.rep.json")),
    ("experiment-eps-half", ("experiment", "eps-half.json")),
    ("experiment-eps-big", ("experiment", "eps-big.json")),
    ("experiment-empty", ("experiment", "empty.json")),
    ("experiment-broken", ("experiment", "broken.json")),
    ("experiment-missing", ("experiment", "missing.json")),
    ("no-command!", ()),
    ("bad-command!", ("nonsense-command",)),
]


def _snapshot() -> dict[str, bytes]:
    return {name: Path(name).read_bytes() for name in sorted(os.listdir(".")) if os.path.isfile(name)}


def _file_text(name: str, data: bytes) -> str:
    text = data.decode("utf-8")
    if name.endswith(".rep.json"):
        return dump_report(stable_view(json.loads(text)))
    return text


def _digest(argv) -> tuple[int, str]:
    """The exit code of ``main(argv)`` and the sha256 of everything it
    printed, warned and wrote."""
    before = _snapshot()
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(list(argv))
    written = {name: _file_text(name, data) for name, data in _snapshot().items()
               if before.get(name) != data}
    payload = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
               "warnings": [str(w.message) for w in caught], "files": written}
    return code, hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_battery() -> dict[str, str]:
    """Digest of each battery entry, run in order in the current directory."""
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    digests = {}
    for name, argv in BATTERY:
        code, digest = _digest(argv)
        digests[name] = f"exit {code}" if name.endswith("!") else digest
    return digests


def test_cli_bytes_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_battery()
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(got) == list(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        digests = run_battery()
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
