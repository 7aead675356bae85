from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import minorforge.paths as paths
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
    Budget,
    HypothesisViolatedError,
    InternalInfeasibleError,
    LinkageFailedError,
    MinorforgeError,
    NeighborsUnavailableError,
    TooLargeError,
)
from minorforge.rng import Rng, derive_seed

import paths_reference

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
    # an int out of range, a string and a float inside the range: each is
    # listed, none raises
    strays = PathFamily(((0, 7), (0, "a"), (1.5, 2)), "between", s={0, 1.5}, t={2, 7, "a"})
    assert audit_path_family(g, strays) == [f"path {i} leaves the host" for i in range(3)]
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


def _linkage_corpus(count: int):
    """Seeded hosts of 8-16 vertices, sparse enough that some linkages
    fail, with one to three pairs, one of them now and then trivial."""
    for i in range(count):
        rng = Rng(derive_seed(33, 7, i))
        n = 8 + rng.below(9)
        g = random_graph(n, Fraction(2 + rng.below(3), 10), rng.spawn(1))
        order = list(range(n))
        rng.shuffle(order)
        k = 1 + rng.below(3)
        pairs = list(zip(order[0:2 * k:2], order[1:2 * k:2]))
        if rng.below(4) == 0:
            pairs[0] = (pairs[0][0], pairs[0][0])
        yield g, pairs


@pytest.mark.parametrize("nodes", [None, 8])
def test_find_linkage_matches_the_closure_reference(monkeypatch, nodes):
    """The per-call search returns the closures' family or ``None`` and
    spends the same budget; with a budget of 8 nodes both run out at the
    same instances."""
    budgets = []

    class Recorded(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    for module in (paths, paths_reference):
        monkeypatch.setattr(module, "Budget", Recorded)
        if nodes is not None:
            monkeypatch.setattr(module, "SEARCH_NODES", nodes)

    def run(search, g, pairs):
        try:
            fam = search(g, pairs)
            return (None if fam is None else fam.paths), budgets[-1].spent
        except TooLargeError as exc:
            return "exhausted", exc.evidence

    outcomes = {"family": 0, "None": 0, "exhausted": 0}
    for g, pairs in _linkage_corpus(400):
        got = run(find_linkage, g, pairs)
        assert got == run(paths_reference.find_linkage, g, pairs), (g.edges(), pairs)
        outcomes["None" if got[0] is None else got[0] if got[0] == "exhausted" else "family"] += 1
    assert outcomes["family"] > 50 and outcomes["None" if nodes is None else "exhausted"] > 50


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


def _knit_outcome(knit, g, s, parts):
    """The knit sets, or the error's type and message."""
    try:
        return knit(g, s, parts)
    except MinorforgeError as exc:
        return type(exc), str(exc)


def test_knit_connect_matches_the_dict_reference():
    """The mask construction returns the reference's sets on every
    partition of criterion 8's hosts, and on seeded G(n, p) hosts with a
    random partition of 2 to 4 vertices the same sets or the same error,
    type and message: too few free neighbours, or no linkage."""
    for case in range(50):
        rng = Rng(derive_seed(108, case))
        n = 18 + rng.below(3)
        g = complete_graph(n)
        verts = list(range(n))
        rng.shuffle(verts)
        s = tuple(sorted(verts[:6]))
        for parts in set_partitions(s):
            want = paths_reference.knit_connect(g, s, parts)
            assert _knit_outcome(knit_connect, g, s, parts) == want
    kinds = set()
    for i in range(200):
        rng = Rng(derive_seed(110, i))
        n = 7 + rng.below(6)
        g = random_graph(n, Fraction(2 + rng.below(3), 6), rng.spawn(1))
        verts = list(range(n))
        rng.shuffle(verts)
        s = verts[:2 + rng.below(3)]
        label = [rng.below(len(s)) for _ in s]
        parts = [p for p in (tuple(v for v, j in zip(s, label) if j == k) for k in range(len(s))) if p]
        got = _knit_outcome(knit_connect, g, s, parts)
        assert got == _knit_outcome(paths_reference.knit_connect, g, s, parts), i
        kinds.add(got[0] if isinstance(got, tuple) else list)
    assert kinds == {list, NeighborsUnavailableError, LinkageFailedError}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_menger_total_on_random_inputs(seed):
    rng = Rng(seed)
    n = 4 + rng.below(5)
    g = random_graph(n, Fraction(2, 5), rng.spawn(1))
    got = menger(g, {0}, {n - 1}, 1 + rng.below(2))
    assert isinstance(got, (PathFamily, Separation))
