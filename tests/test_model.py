from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from minorforge import (
    MinorModel,
    complete_graph,
    compose_models,
    graph_from_edge_list,
    is_attached_to,
    is_rooted_at,
    require_valid,
    validate_model,
)
from minorforge.errors import InvalidModelError

from conftest import brute_connected, petersen, run_optimized
from model_reference import anticomplete, contract_model


def _path6():
    return graph_from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


def test_valid_model_report():
    g = _path6()
    m = MinorModel(g, [{0, 1}, {2}, {4, 5}])
    report = validate_model(m)
    assert report.valid
    assert report.violations == []
    # pattern: {0,1}-{2} adjacent, {2}-{4,5} not (3 sits between)
    twin = MinorModel(g, [{0, 1}, {2}, {4, 5}])
    pat = m.pattern
    assert pat.n == 3
    assert pat.has_edge(0, 1)
    assert not pat.has_edge(1, 2)
    # the kept pattern is not a field: equality, hash and repr ignore it
    assert m.pattern is pat
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)


def test_validation_catches_each_defect():
    g = _path6()
    for frags, needle in [
        ([{0, 1}, {1, 2}], "share"),
        ([{0}, set()], "empty"),
        ([{0, 2}], "connected"),
        ([{0, 9}], "outside host"),
    ]:
        report = validate_model(MinorModel(g, frags))
        assert not report.valid
        assert any(needle in reason for _, reason in report.violations)
        with pytest.raises(InvalidModelError):
            require_valid(MinorModel(g, frags))
        m = MinorModel(g, frags)
        for _ in range(2):  # nothing is kept, so every read raises
            with pytest.raises(InvalidModelError):
                m.pattern


_INVALID_PATTERN_SCRIPT = """
from minorforge import MinorModel, graph_from_edge_list
from minorforge.errors import InvalidModelError
m = MinorModel(graph_from_edge_list(3, [(0, 1)]), [{0, 2}])
for _ in range(2):
    try:
        m.pattern
    except InvalidModelError as exc:
        print("raised", exc.fragment)
"""


def test_invalid_pattern_raises_under_optimize():
    assert run_optimized(_INVALID_PATTERN_SCRIPT).split("\n") == ["raised 0", "raised 0", ""]


def test_contract_model_matches_pattern():
    g = petersen()
    m = MinorModel(g, [{0, 5}, {1, 6}, {2, 7}])
    assert contract_model(m) == m.pattern


@st.composite
def _models(draw):
    """A small host and fragments: free sets over slightly more than its
    vertex range, mostly invalid, or disjoint sets each grown from an
    unused vertex one unused neighbour at a time, valid by construction."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = graph_from_edge_list(n, [e for e, kept in zip(pairs, keep) if kept])
    if n == 0 or draw(st.booleans()):
        frags = draw(st.lists(st.frozensets(st.integers(-1, n + 1), max_size=4), max_size=4))
        return MinorModel(g, frags)
    frags, taken = [], set()
    for _ in range(draw(st.integers(2, 4))):
        free = sorted(set(range(n)) - taken)
        if not free:
            break
        frag = {draw(st.sampled_from(free))}
        for _ in range(draw(st.integers(0, 3))):
            grow = sorted({w for u in frag for w in g.neighbors(u)} - frag - taken)
            if grow:
                frag.add(draw(st.sampled_from(grow)))
        frags.append(frag)
        taken |= frag
    return MinorModel(g, frags)


@settings(max_examples=300, deadline=None)
@given(_models())
def test_validation_agrees_with_set_checks_and_contraction(m):
    frags = m.fragments
    expected = (
        all(f and all(0 <= v < m.host.n for v in f) and brute_connected(m.host, f) for f in frags)
        and sum(map(len, frags)) == len(m.used_vertices())
    )
    assert validate_model(m).valid == expected
    if expected:
        assert contract_model(m) == m.pattern


def test_rooted_and_attached_conventions():
    g = _path6()
    m = MinorModel(g, [{0, 1}, {2, 3}, {4, 5}])
    assert is_rooted_at(m, (1, 2, 5))
    assert not is_rooted_at(m, (0, 1, 5))  # two roots in one fragment
    assert not is_rooted_at(m, (1, 2))     # count mismatch
    # attached: only the first |s| fragments carry the roots
    assert is_attached_to(m, (1, 3))
    assert not is_attached_to(m, (1, 5))   # 5 lives in fragment 2, not 1


def test_anticomplete():
    g = _path6()
    assert anticomplete(g, {0, 1}, {3, 4})
    assert not anticomplete(g, {0, 1}, {2})


def test_compose_models():
    g = complete_graph(6)
    outer = MinorModel(g, [{0, 1}, {2}, {3}, {4, 5}])
    inner = MinorModel(outer.pattern, [{0, 1}, {2, 3}])
    final = compose_models(outer, inner).pattern
    assert final == inner.pattern
    assert compose_models(outer, inner).fragments[0] == frozenset({0, 1, 2})
