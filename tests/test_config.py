from __future__ import annotations

import re
from pathlib import Path

import minorforge
from minorforge import check_wovenness, complete_graph, find_linkage, random_graph
from minorforge import config
from minorforge.rng import Rng

CAPS = sorted(name for name in vars(config) if name.isupper())


def test_defaults():
    assert {name: getattr(config, name) for name in CAPS} == {
        "COLORING_CAP": 20,
        "SEPARABLE_CAP": 14,
        "LINKAGE_PAIRS_CAP": 6,
        "LINKAGE_VERTEX_CAP": 24,
        "WOVEN_CAP": 9,
        "SEARCH_NODES": 2_000_000,
    }


def test_every_cap_is_read_outside_config():
    # a cap that no solver reads is a constant nobody needs
    pkg = Path(minorforge.__file__).parent
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(pkg.glob("*.py"))
        if path.name != "config.py"
    )
    unread = [name for name in CAPS if not re.search(rf"\b{name}\b", source)]
    assert unread == []


def test_linkage_ignores_the_old_cap_override(monkeypatch):
    # the environment is no input: MINORFORGE_CAPS, set to caps this
    # search would exceed, changes nothing
    g = random_graph(20, "1/2", Rng(7))
    pairs = [(0, 5), (1, 7)]
    monkeypatch.delenv("MINORFORGE_CAPS", raising=False)
    plain = find_linkage(g, pairs)
    assert plain is not None
    monkeypatch.setenv("MINORFORGE_CAPS", "search_nodes=3,linkage_n=10")
    assert find_linkage(g, pairs).paths == plain.paths


def test_wovenness_ignores_a_malformed_cap_override(monkeypatch):
    monkeypatch.setenv("MINORFORGE_CAPS", "bogus=1")
    assert check_wovenness(complete_graph(5), "1/2", 1, 1).verdict == "proven"
