from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minorforge import (
    PathFamily,
    Separation,
    audit_path_family,
    complete_graph,
    find_linkage,
    graph_from_edge_list,
    knit_connect,
    menger,
    random_graph,
    require_paths,
)
from minorforge.errors import (
    HypothesisViolatedError,
    InternalInfeasibleError,
    LinkageFailedError,
    NeighborsUnavailableError,
    TooLargeError,
)
from minorforge.rng import Rng, derive_seed

from conftest import (
    brute_connected,
    brute_disjoint_paths,
    brute_linkage_exists,
    run_optimized,
    set_partitions,
)


def test_audit_flags_structural_defects():
    g = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    bad_edge = PathFamily(((0, 2),), "between", s={0}, t={2})
    assert any("non-edge" in p for p in audit_path_family(g, bad_edge))
    repeat = PathFamily(((0, 1, 0),), "between", s={0}, t={0})
    assert any("repeats" in p for p in audit_path_family(g, repeat))
    off_host = PathFamily(((0, 7),), "between", s={0}, t={7})
    assert any("leaves the host" in p for p in audit_path_family(g, off_host))
    doubled = PathFamily(((0, 1), (0, 1, 2)), "doubled", s={0}, t={1, 2})
    assert audit_path_family(g, doubled) == ["unknown contract kind 'doubled'"]
    with pytest.raises(InternalInfeasibleError):
        require_paths(g, bad_edge)


def test_audit_between_contract():
    g = complete_graph(5)
    ok = PathFamily(((0, 2, 3),), "between", s={0}, t={3})
    assert audit_path_family(g, ok) == []
    through_t = PathFamily(((0, 3, 4),), "between", s={0}, t={3, 4})
    assert any("internally" in p for p in audit_path_family(g, through_t))


_CONTRACTLESS_SCRIPT = """
from minorforge import PathFamily, audit_path_family, complete_graph
from minorforge.errors import InternalInfeasibleError

g = complete_graph(3)
for fam in (
    PathFamily(((0, 1),), "between", s={0}),
    PathFamily(((0, 1),), "linkage"),
):
    try:
        audit_path_family(g, fam)
    except InternalInfeasibleError as err:
        print(fam.kind, "refused:", err)
    else:
        raise SystemExit("audited a " + fam.kind + " family without its contract")
"""


def test_audit_refuses_a_family_without_its_contract_under_optimize():
    out = run_optimized(_CONTRACTLESS_SCRIPT)
    for kind in ("between", "linkage"):
        assert kind + " refused" in out


def test_audit_linkage_allows_single_vertex_paths():
    g = complete_graph(4)
    fam = PathFamily(((2,), (0, 3)), "linkage", pairs=((2, 2), (0, 3)))
    assert audit_path_family(g, fam) == []
    wrong = PathFamily(((0, 1),), "linkage", pairs=((0, 2),))
    assert any("declared pair" in p for p in audit_path_family(g, wrong))


def test_menger_agrees_with_brute_force():
    for i in range(60):
        rng = Rng(derive_seed(1, i))
        n = 4 + rng.below(6)
        g = random_graph(n, Fraction(1, 2), rng.spawn(1))
        verts = list(range(n))
        rng.shuffle(verts)
        a = 1 + rng.below(2)
        b = 1 + rng.below(2)
        s, t = verts[:a], verts[a:a + b]
        k = rng.below(3)
        got = menger(g, s, t, k)
        expect = brute_disjoint_paths(g, s, t, k)
        if isinstance(got, PathFamily):
            assert expect
            assert len(got.paths) == k
            assert audit_path_family(g, got) == []
        else:
            assert not expect
            assert isinstance(got, Separation)
            assert got.order < k
            assert frozenset(s) <= got.a and frozenset(t) <= got.b
            assert got.violations(g) == []


def test_menger_zero_paths_trivial():
    g = complete_graph(3)
    fam = menger(g, {0}, {2}, 0)
    assert isinstance(fam, PathFamily)
    assert fam.paths == ()


def test_menger_refuses_a_negative_path_count():
    message = "^the path count must be at least 0$"
    with pytest.raises(HypothesisViolatedError, match=message) as info:
        menger(complete_graph(3), {0}, {2}, -1)
    assert info.value.evidence == -1


def test_find_linkage_matches_brute_force():
    for i in range(60):
        rng = Rng(derive_seed(2, i))
        n = 4 + rng.below(5)
        g = random_graph(n, Fraction(1, 2), rng.spawn(1))
        verts = list(range(n))
        rng.shuffle(verts)
        pairs = [(verts[0], verts[1]), (verts[2], verts[3])]
        fam = find_linkage(g, pairs)
        expect = brute_linkage_exists(g, pairs)
        if fam is None:
            assert not expect
        else:
            assert expect
            assert fam.pairs == tuple(pairs)
            assert audit_path_family(g, fam) == []


def test_find_linkage_trivial_pair_and_caps():
    g = complete_graph(5)
    fam = find_linkage(g, [(2, 2), (0, 4)])
    assert fam is not None
    assert fam.paths[0] == (2,)
    with pytest.raises(TooLargeError):
        find_linkage(complete_graph(25), [(0, 1)])
    with pytest.raises(HypothesisViolatedError):
        find_linkage(g, [(0, 1), (1, 2)])  # endpoint 1 reused across pairs


def test_knit_connect_on_complete_host():
    # worst partition shape wants two fresh neighbors per chosen vertex,
    # so 6 + 12 host vertices always suffice
    g = complete_graph(18)
    rng = Rng(derive_seed(3, 0))
    verts = list(range(18))
    rng.shuffle(verts)
    s = tuple(sorted(verts[:6]))
    count = 0
    for parts in set_partitions(s):
        sets = knit_connect(g, s, parts)
        count += 1
        assert len(sets) == len(parts)
        for part, c in zip(parts, sets):
            assert set(part) <= c
            assert brute_connected(g, c)
    assert count == 203  # Bell number of a 6-set


def test_knit_connect_failure_is_typed():
    # two stars whose leaves cannot reach each other outside s
    g = graph_from_edge_list(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    with pytest.raises(LinkageFailedError):
        knit_connect(g, (0, 3), [(0, 3)])
    # a path end has a single neighbor, so two fresh ones cannot exist
    path = graph_from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(NeighborsUnavailableError):
        knit_connect(path, (0, 4), [(0, 4)])
    with pytest.raises(HypothesisViolatedError):
        knit_connect(path, (0, 1), [(0,)])  # parts must partition s


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_menger_total_on_random_inputs(seed):
    rng = Rng(seed)
    n = 4 + rng.below(5)
    g = random_graph(n, Fraction(2, 5), rng.spawn(1))
    got = menger(g, {0}, {n - 1}, 1 + rng.below(2))
    assert isinstance(got, (PathFamily, Separation))
