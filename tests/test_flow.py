from __future__ import annotations

import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from minorforge import (
    complete_graph,
    graph_from_edge_list,
    pair_vertex_cut,
    random_graph,
    vertex_connectivity,
    vertex_connectivity_with_cutset,
)
from minorforge.errors import HypothesisViolatedError, InternalInfeasibleError
from minorforge.flow import INF, FlowNet, SetFlow
from minorforge.rng import Rng, derive_seed

import flow_reference as ref
from conftest import (
    brute_connected,
    brute_disjoint_paths,
    brute_vertex_connectivity,
    petersen,
    run_optimized,
)


def test_connectivity_structured():
    assert vertex_connectivity(complete_graph(7)) == 6
    assert vertex_connectivity(petersen()) == 3
    path = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert vertex_connectivity(path) == 1
    two_parts = graph_from_edge_list(4, [(0, 1), (2, 3)])
    k, cut = vertex_connectivity_with_cutset(two_parts)
    assert k == 0 and cut == ()


def test_connectivity_cutset_certificate():
    # two triangles sharing vertex 3
    g = graph_from_edge_list(
        5, [(0, 1), (0, 3), (1, 3), (2, 3), (2, 4), (3, 4)]
    )
    k, cut = vertex_connectivity_with_cutset(g)
    assert k == 1
    assert cut == (3,)
    rest = set(range(g.n)) - set(cut)
    assert not brute_connected(g, rest)


def test_connectivity_matches_brute_force():
    for i in range(40):
        rng = Rng(derive_seed(20, i))
        n = 2 + rng.below(6)
        p = Fraction(rng.below(10) + 1, 11)
        g = random_graph(n, p, rng.spawn(1))
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_pair_vertex_cut():
    # 0 and 4 joined through the 1,2,3 layer
    g = graph_from_edge_list(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    )
    value, cut = pair_vertex_cut(g, 0, 4)
    assert value == 3
    assert cut == (1, 2, 3)
    assert pair_vertex_cut(g, 0, 4, limit=2) == (2, None)
    g2 = graph_from_edge_list(3, [(0, 1), (1, 2)])
    value2, cut2 = pair_vertex_cut(g2, 0, 2)
    assert value2 == 1 and cut2 == (1,)
    rest = set(range(g2.n)) - set(cut2)
    assert not brute_connected(g2, rest)
    for x, y in ((0, 1), (2, 2)):
        with pytest.raises(HypothesisViolatedError):
            pair_vertex_cut(g2, x, y)


def test_set_flow_value_matches_brute_paths():
    for i in range(30):
        rng = Rng(derive_seed(21, i))
        n = 4 + rng.below(5)
        g = random_graph(n, Fraction(1, 2), rng.spawn(1))
        verts = list(range(n))
        rng.shuffle(verts)
        s = frozenset(verts[:2])
        t = frozenset(verts[2:4])
        flow = SetFlow(g, s, t)
        value = flow.run()
        assert brute_disjoint_paths(g, s, t, value)
        assert not brute_disjoint_paths(g, s, t, value + 1)


def test_set_flow_paths_are_disjoint():
    g = petersen()
    flow = SetFlow(g, {0, 1}, {7, 8})
    value = flow.run()
    paths = flow.paths()
    assert len(paths) == value
    seen: set[int] = set()
    for path in paths:
        assert path[0] in {0, 1} and path[-1] in {7, 8}
        assert not (set(path) & seen)
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)
        seen |= set(path)


def test_doubled_source_next_to_uncuttable_target_is_refused():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(HypothesisViolatedError):
        SetFlow(g, {0}, {1}, source_cap=2, uncuttable_targets=True)
    SetFlow(g, {0}, {2}, source_cap=2, uncuttable_targets=True)


_FLOW_KINDS = ({}, {"source_cap": 2}, {"uncuttable_targets": True})
_PAIR_CUT = {"source_cap": INF, "uncuttable_targets": True}


@contextmanager
def _deadline(seconds: int):
    """Fail the block with ``TimeoutError`` after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_engine_matches_the_explicit_network(monkeypatch):
    """Both path finders of the bitmask engine against the arc-record
    network it replaced: ``run`` (one shortest path per search) gives the
    same values, paths and cuts, and ``min_cut`` (blocking-flow phases) the
    same values and cuts, through a capped run resumed to the maximum; a
    cut is refused while the flow is below the maximum.  A phase that
    revisits dead nodes or leaves its layers can loop forever; the deadline
    (the test takes a few seconds) turns that into a failure."""
    phase = FlowNet._phase

    def counted(self, limit):
        got = phase(self, limit)
        hits["phase of 2+ units"] += got >= 2
        return got

    monkeypatch.setattr(FlowNet, "_phase", counted)
    hits = Counter()
    with _deadline(60):
        for i in range(600):
            rng = Rng(derive_seed(22, i))
            n = 3 + rng.below(30)
            g = random_graph(n, Fraction(1 + rng.below(9), 10), rng.spawn(1))
            verts = list(range(n))
            rng.shuffle(verts)
            a = 1 + rng.below(max(1, n // 3))
            b = 1 + rng.below(max(1, n // 3))
            overlap = rng.below(3)  # how many sources are also targets
            s, t = verts[:a], verts[max(0, a - overlap) : a + b]
            hits["overlap"] += bool(set(s) & set(t))
            _compare_finders(g, s, t, _FLOW_KINDS[i % 3], rng, hits, i)
            x, y = verts[0], verts[-1]
            if not g.has_edge(x, y):
                _compare_finders(g, [x], [y], _PAIR_CUT, rng, hits, i)
                for limit in (INF, 1 + rng.below(3)):
                    got = pair_vertex_cut(g, x, y, limit)
                    assert got == ref.pair_vertex_cut(g, x, y, limit), i
                    hits["pair cut" if got[1] is not None else "pair capped"] += 1
    for case in ("overlap", "stalled", "doubled start", "refused cut",
                 "pair cut", "pair capped"):
        assert hits[case], case
    assert hits["capped"] > 100 and hits["phase of 2+ units"] > 100, hits


def _compare_finders(g, s, t, kwargs, rng, hits, i):
    engine, phased = SetFlow(g, s, t, **kwargs), SetFlow(g, s, t, **kwargs)
    old = ref.SetFlow(g, s, t, **kwargs)
    for limit in (1 + rng.below(4), INF):
        value = engine.run(limit)
        assert value == old.run(limit), i
        paths = engine.paths()
        assert paths == old.paths(), i
        cut = engine.cut_vertices() if value < limit else None
        assert phased.min_cut(limit) == (value, cut), i
        if value < limit:
            hits["stalled"] += limit != INF  # an unlimited run always stalls
            assert cut == old.cut_vertices(), i
        else:
            hits["capped"] += 1
            if old.run(INF) > value:  # the reference goes on; the engines stay capped
                hits["refused cut"] += 1
                for net in (engine, phased):
                    with pytest.raises(InternalInfeasibleError):
                        net.cut_vertices()
        if 2 in Counter(p[0] for p in paths).values():
            hits["doubled start"] += 1


_DROPPED_CUT_SCRIPT = """
from minorforge import graph_from_edge_list, pair_vertex_cut
from minorforge.errors import InternalInfeasibleError
from minorforge.flow import SetFlow
from minorforge.paths import menger

honest = SetFlow.cut_vertices
SetFlow.cut_vertices = lambda self: honest(self)[1:]
g = graph_from_edge_list(3, [(0, 1), (1, 2)])
for name, call in (
    ("menger", lambda: menger(g, {0}, {2}, 2)),
    ("pair_vertex_cut", lambda: pair_vertex_cut(g, 0, 2)),
):
    try:
        call()
    except InternalInfeasibleError as err:
        print(name, "refused:", err)
    else:
        raise SystemExit(name + " accepted a cut missing a vertex")
"""


def test_flow_certificates_are_checked_under_optimize():
    out = run_optimized(_DROPPED_CUT_SCRIPT)
    assert "menger refused" in out and "pair_vertex_cut refused" in out
