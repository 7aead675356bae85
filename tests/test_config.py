from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

import minorforge
from minorforge.config import Caps, active_caps
from minorforge.errors import ParseError


def test_defaults():
    caps = Caps()
    assert caps.coloring == 20
    assert caps.linkage_k == 6
    assert caps.search_nodes == 2_000_000


def test_env_override(monkeypatch):
    monkeypatch.setenv("MINORFORGE_CAPS", "coloring=24, woven=10")
    caps = active_caps()
    assert caps.coloring == 24
    assert caps.woven == 10
    assert caps.separable == 14  # untouched field keeps its default


def test_env_rejects_unknown_names_and_non_integers(monkeypatch):
    monkeypatch.setenv("MINORFORGE_CAPS", "linkage_n=30,colouring=5")
    with pytest.raises(ParseError, match="'colouring'"):
        active_caps()
    monkeypatch.setenv("MINORFORGE_CAPS", "coloring=abc")
    with pytest.raises(ParseError, match="'coloring'"):
        active_caps()


def test_env_reread_each_call(monkeypatch):
    monkeypatch.setenv("MINORFORGE_CAPS", "coloring=21")
    assert active_caps().coloring == 21
    monkeypatch.delenv("MINORFORGE_CAPS")
    assert active_caps().coloring == 20


def test_every_cap_is_read_outside_config():
    # a cap that no solver reads is an option nobody can use
    pkg = Path(minorforge.__file__).parent
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(pkg.glob("*.py"))
        if path.name != "config.py"
    )
    unread = [f.name for f in fields(Caps)
              if not re.search(rf"\.{f.name}\b", source)]
    assert unread == []
