from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minorforge import (
    MinorModel,
    complete_graph,
    parse_fraction,
    parse_graph,
    parse_model,
    random_graph,
    serialize_graph,
    serialize_model,
    to_dot,
)
from minorforge.errors import ParseError
from minorforge.graphio import (
    REPORT_SCHEMA,
    dump_report,
    format_fraction,
    make_report,
    stable_view,
)
from minorforge.rng import Rng

from conftest import petersen


def test_fraction_parsing():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("7") == Fraction(7)
    assert parse_fraction("-2/5") == Fraction(-2, 5)
    for bad in ("0.5", "1/0", "1/-2", "a", "", "1 /2", "\uff13/4", "1/\u0664", "1/4\u0664"):
        with pytest.raises(ParseError):
            parse_fraction(bad)
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(4)) == "4"


def test_graph_round_trip_byte_exact():
    g = petersen()
    text = serialize_graph(g)
    parsed, side = parse_graph(text)
    assert parsed == g
    assert side is None
    assert serialize_graph(parsed) == text


def test_bipartite_header_round_trip():
    g = complete_graph(3)
    text = serialize_graph(g, side_a=2)
    parsed, side = parse_graph(text)
    assert side == 2
    assert serialize_graph(parsed, side_a=side) == text


def test_graph_parse_rejections():
    cases = {
        "no header": "e 0 1\n",
        "bad edge count": "p 3 5\ne 0 1\n",
        "loop": "p 2 1\ne 1 1\n",
        "out of range": "p 2 1\ne 0 2\n",
        "unsorted endpoints": "p 3 1\ne 2 1\n",
        "duplicate edge": "p 3 2\ne 0 1\ne 0 1\n",
        "edges out of order": "p 3 2\ne 1 2\ne 0 1\n",
        "trailing junk": "p 2 1\ne 0 1\nx\n",
        "bad side": "p 4 0\nb 9\n",
    }
    for name, text in cases.items():
        with pytest.raises(ParseError):
            parse_graph(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_graph("p 3 2\ne 0 1\ne 1 1\n")
    assert "3" in str(info.value)
    with pytest.raises(ParseError, match="^line 1: negative counts"):
        parse_graph("p -1 0\n")


def _parse_model_on_k4(text):
    return parse_model(text, complete_graph(4))


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_graph, "p 3 1\ne 0 +2\n", 2),
        (parse_graph, "p 1_1 0\n", 1),
        (parse_graph, "p \uff13 0\n", 1),  # full-width 3
        (parse_graph, "p 3 1\ne 0 \uff12\n", 2),  # full-width 2
        (parse_graph, "p 03 0\n", 1),
        (parse_graph, "p 3 0\nb -0\n", 2),
        (_parse_model_on_k4, "model 1\nf +0 0 1\n", 2),
        (_parse_model_on_k4, "model 1\nf 0 0 \u0661\n", 2),  # Arabic-Indic 1
        (_parse_model_on_k4, "model 0_1\n", 1),
    ],
)
def test_parsers_read_canonical_integers_only(parse, text, line):
    """Signs, underscores, leading zeros and non-ASCII digits would parse
    under int() and then serialize to different bytes."""
    with pytest.raises(ParseError, match=f"^line {line}: not an integer"):
        parse(text)


def test_model_round_trip():
    g = petersen()
    m = MinorModel(g, [{0, 5}, {1, 6}, {2, 7}])
    text = serialize_model(m)
    parsed = parse_model(text, g)
    assert parsed.fragments == m.fragments
    assert serialize_model(parsed) == text


def test_model_parse_rejections():
    g = complete_graph(4)
    for text in (
        "f 0 1\n",                      # missing header
        "model 1\nf 1 0\n",             # index must match position
        "model 1\nf 0 9\n",             # vertex out of host
        "model 1\nf 0 2 1\n",           # vertices must be sorted
        "model 2\nf 0 1\n",             # fragment count mismatch
    ):
        with pytest.raises(ParseError):
            parse_model(text, g)


def test_dot_export_shape():
    g = petersen()
    m = MinorModel(g, [{0, 5}, {1, 6}])
    dot = to_dot(g, m)
    assert dot.startswith("graph G {")
    assert dot.rstrip().endswith("}")
    assert "subgraph cluster_0" in dot
    assert "subgraph cluster_1" in dot
    assert dot.count(" -- ") == g.m
    plain = to_dot(g)
    assert "cluster" not in plain


def test_report_schema_and_stability():
    records = [{"cell": 0, "success": True, "wall_ms": 12.5}]
    aggregates = {"total": 1}
    r1 = make_report({"seed": 1}, records, aggregates)
    r2 = make_report({"seed": 1}, [{"cell": 0, "success": True, "wall_ms": 99.0}], aggregates)
    assert r1["schema"] == REPORT_SCHEMA
    assert "generated_at" in r1
    assert stable_view(r1) == stable_view(r2)  # timing noise is stripped
    assert dump_report(stable_view(r1)) == dump_report(stable_view(r2))
    assert dump_report(r1).endswith("\n")
    # stable_view leaves the inputs untouched
    assert "generated_at" in r1 and "wall_ms" in r1["records"][0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 2**32 - 1))
def test_round_trip_random_graphs(n, seed):
    g = random_graph(n, Fraction(1, 2), Rng(seed)) if n else complete_graph(0)
    text = serialize_graph(g)
    parsed, _ = parse_graph(text)
    assert parsed == g
    assert serialize_graph(parsed) == text
