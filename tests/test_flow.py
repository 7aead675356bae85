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
import separation_reference as sep_ref
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
        SetFlow(g, {0}, {1}, uncuttable_sources=True, uncuttable_targets=True)
    SetFlow(g, {0}, {2}, uncuttable_sources=True, uncuttable_targets=True)


_FLOW_KINDS = ({}, {"uncuttable_targets": True})
# the reference spells an uncuttable source as one of capacity INF
_PAIR_CUT = (
    {"uncuttable_sources": True, "uncuttable_targets": True},
    {"source_cap": INF, "uncuttable_targets": True},
)


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
    cut is refused while the flow is below the maximum.  After every run
    the ``spare`` and ``used`` masks match the throughputs.  A phase that
    revisits dead nodes or leaves its layers can loop forever; the deadline
    (the test takes a few seconds) turns that into a failure."""
    phase, apply = FlowNet._phase, FlowNet._apply

    def counted(self, limit):
        got = phase(self, limit)
        hits["phase of 2+ units"] += got >= 2
        return got

    def counted_apply(self, path):
        # out(v) -> in(v) takes a unit off vertex v
        hits["unit off a vertex"] += any(
            prev == node + 1 and not node & 1 for prev, node in zip(path, path[1:])
        )
        apply(self, path)

    monkeypatch.setattr(FlowNet, "_phase", counted)
    monkeypatch.setattr(FlowNet, "_apply", counted_apply)
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
            kwargs = _FLOW_KINDS[i % len(_FLOW_KINDS)]
            _compare_finders(g, s, t, (kwargs, kwargs), rng, hits, i)
            x, y = verts[0], verts[-1]
            if not g.has_edge(x, y):
                _compare_finders(g, [x], [y], _PAIR_CUT, rng, hits, i)
                for limit in (INF, 1 + rng.below(3)):
                    got = pair_vertex_cut(g, x, y, limit)
                    assert got == ref.pair_vertex_cut(g, x, y, limit), i
                    hits["pair cut" if got[1] is not None else "pair capped"] += 1
        # No random host above ever takes a unit off a vertex.  Here the first
        # path is 0-2-5; the second runs 1-4-5, back over 5-2-0 and on by
        # 0-3-6, so the flow ends as 0-3-6 and 1-4-5 and vertex 2 is freed.
        g = graph_from_edge_list(7, [(0, 2), (2, 5), (0, 3), (3, 6), (1, 4), (4, 5)])
        _compare_finders(g, [0, 1], [5, 6], ({}, {}), Rng(0), hits, "unit off a vertex")
    for case in ("overlap", "stalled", "doubled start", "refused cut",
                 "pair cut", "pair capped", "unit off a vertex"):
        assert hits[case], case
    assert hits["capped"] > 100 and hits["phase of 2+ units"] > 100, hits


def _compare_finders(g, s, t, kwargs, rng, hits, i):
    """``kwargs`` holds the engine's keywords, then the reference's."""
    engine, phased = SetFlow(g, s, t, **kwargs[0]), SetFlow(g, s, t, **kwargs[0])
    old = ref.SetFlow(g, s, t, **kwargs[1])
    for limit in (1 + rng.below(4), INF):
        value = engine.run(limit)
        assert value == old.run(limit), i
        _audit_masks(engine, i)
        paths = engine.paths()
        assert paths == old.paths(), i
        cut = engine.cut_vertices() if value < limit else None
        assert phased.min_cut(limit) == (value, cut), i
        _audit_masks(phased, i)
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


def _audit_masks(net, i):
    """``spare`` and ``used``, kept by ``_apply``, against the throughputs."""
    spare = sum(1 << v for v, c in enumerate(net.through) if c < net.cap[v])
    used = sum(1 << v for v, c in enumerate(net.through) if c)
    assert (net.spare, net.used) == (spare, used), i


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


def _connectivity_host(rng, kind):
    """G(n, 1/10..9/10), G(n, 7/10..9/10), or a planted host.  In the
    planted one, vertex 0 has the least degree d and the neighbours X, X
    is complete to a block Q and all of X but its last vertex, Y, to a
    clique R.  The first pair, 0 and the lowest vertex of Q, has d paths
    through X; the minimum cut Y, of d - 1 vertices, is found later, by
    the pairs of 0 and R, whose common neighbours are exactly Y."""
    if kind == "planted":
        d = 2 + rng.below(4)
        x, q = range(1, d + 1), range(d + 1, 2 * d + 1 + rng.below(5))
        r = range(q.stop, q.stop + 2 + rng.below(3))
        edges = [(0, a) for a in x] + [(a, b) for a in x for b in q]
        edges += [(a, b) for a in x[:-1] for b in r]
        edges += [(a, b) for a in r for b in r if a < b]
        edges += [(a, b) for grp in (x, q) for a in grp for b in grp if a < b and rng.below(2)]
        return graph_from_edge_list(r.stop, edges)
    p = Fraction(1 + rng.below(9), 10) if kind == "any" else Fraction(7 + rng.below(3), 10)
    return random_graph(2 + rng.below(26), p, rng.spawn(1))


def test_pair_skip_matches_connectivity_without_it(monkeypatch):
    """``vertex_connectivity_with_cutset`` skips every pair with at least
    ``best`` common neighbours.  Against a verbatim copy of the loop that
    runs every pair cut, it returns the same ``(k, cut)``, also on hosts
    whose minimum cut is a pair's common neighbourhood found after a
    larger one."""
    import minorforge.connectivity as connectivity

    calls = Counter()

    def counted(name):
        def pair_cut(*args, **kwargs):
            calls[name] += 1
            return pair_vertex_cut(*args, **kwargs)

        return pair_cut

    monkeypatch.setattr(connectivity, "pair_vertex_cut", counted("engine"))
    monkeypatch.setattr(sep_ref, "pair_vertex_cut", counted("reference"))
    below_min_degree = 0
    for i in range(330):
        kind = ("any", "dense", "planted")[i % 3]
        g = _connectivity_host(Rng(derive_seed(23, i)), kind)
        got = vertex_connectivity_with_cutset(g)
        assert got == sep_ref.vertex_connectivity_with_cutset(g), (kind, i)
        below_min_degree += kind == "planted" and got[0] < g.min_degree()
    assert below_min_degree == 110
    assert calls["reference"] - calls["engine"] > 100, calls
