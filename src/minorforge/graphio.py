"""Text formats for graphs and models, DOT export, JSON report plumbing.

Graph files: line 1 ``p <n> <m>``; an optional line ``b <a>`` declares
vertices 0..a-1 as side A of a bipartition; then m lines ``e <u> <v>``
with u < v, in strictly increasing lexicographic order.  Model files:
line 1 ``model <k>``; then k lines ``f <i> <v1> <v2> ...`` with sorted
vertex lists.  Both formats are canonical, so serialize-parse round
trips are byte-exact.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from fractions import Fraction

from .errors import HypothesisViolatedError, ParseError, check_count
from .graph import Graph
from .model import MinorModel, _check_model

__all__ = [
    "REPORT_SCHEMA",
    "dump_report",
    "format_fraction",
    "make_report",
    "parse_fraction",
    "parse_graph",
    "parse_model",
    "serialize_graph",
    "serialize_model",
    "stable_view",
    "to_dot",
]

REPORT_SCHEMA = 1

_FRACTION_RE = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


def parse_fraction(text: str) -> Fraction:
    """Exact rational from ``p`` or ``p/q`` text; floats are rejected."""
    text = text.strip()
    if not _FRACTION_RE.match(text):
        raise ParseError(f"not a p/q rational: {text!r}")
    return Fraction(text)


def format_fraction(value) -> str:
    return str(Fraction(value))


def _tokens(line: str, lineno: int, tag: str, count: int) -> list[str]:
    parts = line.split()
    if not parts or parts[0] != tag or (count and len(parts) != count):
        raise ParseError(f"line {lineno}: expected `{tag} ...`, got {line!r}")
    return parts


def _int(token: str, lineno: int) -> int:
    """A canonical decimal integer: ASCII digits, no sign but a leading
    minus, no leading zero, no underscore."""
    if not _INT_RE.fullmatch(token):
        raise ParseError(f"line {lineno}: not an integer: {token!r}")
    return int(token)


def parse_graph(text: str) -> tuple[Graph, int | None]:
    """Graph plus the declared side-A size (None without a ``b`` line)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty graph file")
    head = _tokens(lines[0], 1, "p", 3)
    n = _int(head[1], 1)
    m = _int(head[2], 1)
    if n < 0 or m < 0:
        raise ParseError("line 1: negative counts")
    at = 1
    side = None
    if at < len(lines) and lines[at].split()[:1] == ["b"]:
        btok = _tokens(lines[at], at + 1, "b", 2)
        side = _int(btok[1], at + 1)
        if not 0 <= side <= n:
            raise ParseError(f"line {at + 1}: side size out of range")
        at += 1
    edges: list[tuple[int, int]] = []
    prev: tuple[int, int] | None = None
    for k in range(m):
        lineno = at + k + 1
        if at + k >= len(lines):
            raise ParseError(f"line {lineno}: {m} edges declared, fewer found")
        tok = _tokens(lines[at + k], lineno, "e", 3)
        u, v = _int(tok[1], lineno), _int(tok[2], lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range")
        if u == v:
            raise ParseError(f"line {lineno}: loop at {u}")
        if u > v:
            raise ParseError(f"line {lineno}: endpoints not in u < v order")
        if prev is not None and (u, v) <= prev:
            raise ParseError(
                f"line {lineno}: edges out of order or duplicated"
            )
        prev = (u, v)
        edges.append((u, v))
    if at + m != len(lines):
        raise ParseError(f"line {at + m + 1}: trailing content")
    return Graph(n, edges), side


def serialize_graph(g: Graph, side_a: int | None = None) -> str:
    out = [f"p {g.n} {g.m}"]
    if side_a is not None:
        out.append(f"b {check_count('side_a', side_a, 0, g.n)}")
    out.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def parse_model(text: str, host: Graph) -> MinorModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty model file")
    head = _tokens(lines[0], 1, "model", 2)
    k = _int(head[1], 1)
    if k < 0:
        raise ParseError("line 1: negative fragment count")
    if len(lines) != k + 1:
        raise ParseError(f"{k} fragments declared, {len(lines) - 1} found")
    fragments = []
    for i in range(k):
        lineno = i + 2
        parts = lines[i + 1].split()
        if len(parts) < 3 or parts[0] != "f":
            raise ParseError(f"line {lineno}: expected `f <i> <v...>`")
        if _int(parts[1], lineno) != i:
            raise ParseError(f"line {lineno}: fragment index must be {i}")
        verts = [_int(tk, lineno) for tk in parts[2:]]
        for v in verts:
            if not 0 <= v < host.n:
                raise ParseError(f"line {lineno}: vertex {v} outside host")
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ParseError(
                f"line {lineno}: vertices not sorted or duplicated"
            )
        fragments.append(frozenset(verts))
    return MinorModel(host, fragments)


def serialize_model(m: MinorModel) -> str:
    out = [f"model {len(_check_model(m).fragments)}"]
    for i, frag in enumerate(m.fragments):
        out.append("f " + str(i) + " " + " ".join(map(str, sorted(frag))))
    return "\n".join(out) + "\n"


_DOT_COLORS = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
)


def to_dot(g: Graph, model: MinorModel | None = None) -> str:
    """DOT text; with a model of ``g``, fragments become colored clusters."""
    out = ["graph G {", "  node [shape=circle];"]
    covered: set[int] = set()
    if model is not None:
        if _check_model(model).host != g:
            raise HypothesisViolatedError("the model must live in the given host", evidence=model)
        for i, frag in enumerate(model.fragments):
            color = _DOT_COLORS[i % len(_DOT_COLORS)]
            out.append(f"  subgraph cluster_{i} {{")
            out.append(f'    label="f{i}";')
            out.append("    style=filled;")
            out.append(f'    fillcolor="{color}";')
            for v in sorted(frag):
                out.append(f"    {v};")
            out.append("  }")
            covered |= set(frag)
    for v in range(g.n):
        if v not in covered:
            out.append(f"  {v};")
    for u, v in g.edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"


def make_report(config: dict, records: list, aggregates: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config,
        "records": records,
        "aggregates": aggregates,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=format_fraction) + "\n"


def stable_view(report: dict) -> dict:
    """Copy of a report with the wall-clock fields removed; two runs of
    the same config and seed must agree byte for byte on this view."""
    out = {k: v for k, v in report.items() if k != "generated_at"}
    out["records"] = [
        {k: v for k, v in rec.items() if k != "wall_ms"}
        for rec in report.get("records", ())
    ]
    return out
