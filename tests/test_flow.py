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
from minorforge.flow import INF, FlowNet, SetFlow, _seed_paths, _short_paths
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


def test_pair_vertex_cut_refuses_a_negative_limit():
    g = graph_from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    for limit in (-1, -3):
        with pytest.raises(HypothesisViolatedError, match="^limit must be at least 0$") as info:
            pair_vertex_cut(g, 0, 4, limit=limit)
        assert info.value.evidence == limit
    assert pair_vertex_cut(g, 0, 4, limit=0) == (0, None)


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
    """The bitmask engine against the arc-record network it replaced:
    ``run`` gives the same values, paths and cuts, through a capped run
    resumed to the maximum; a cut is refused while the flow is below the
    maximum.  A search that loses track of what it reached can loop
    forever; the deadline (the test takes a few seconds) turns that into
    a failure."""
    apply = FlowNet._apply

    def counted_apply(self, path):
        # out(v) -> in(v) takes a unit off vertex v
        hits["unit off a vertex"] += any(
            prev == node + 1 and not node & 1 for prev, node in zip(path, path[1:])
        )
        apply(self, path)

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
            _compare_flows(g, s, t, (kwargs, kwargs), rng, hits, i)
            x, y = verts[0], verts[-1]
            if not g.has_edge(x, y):
                _compare_flows(g, [x], [y], _PAIR_CUT, rng, hits, i)
                for limit in (INF, 1 + rng.below(3)):
                    got = pair_vertex_cut(g, x, y, limit)
                    assert got == ref.pair_vertex_cut(g, x, y, limit), i
                    hits["pair cut" if got[1] is not None else "pair capped"] += 1
        # No random host above ever takes a unit off a vertex.  Here the first
        # path is 0-2-5; the second runs 1-4-5, back over 5-2-0 and on by
        # 0-3-6, so the flow ends as 0-3-6 and 1-4-5 and vertex 2 is freed.
        g = graph_from_edge_list(7, [(0, 2), (2, 5), (0, 3), (3, 6), (1, 4), (4, 5)])
        _compare_flows(g, [0, 1], [5, 6], ({}, {}), Rng(0), hits, "unit off a vertex")
    for case in ("overlap", "stalled", "doubled start", "refused cut",
                 "pair cut", "pair capped", "unit off a vertex"):
        assert hits[case], case
    assert hits["capped"] > 100, hits


def _compare_flows(g, s, t, kwargs, rng, hits, i):
    """``kwargs`` holds the engine's keywords, then the reference's."""
    engine = SetFlow(g, s, t, **kwargs[0])
    old = ref.SetFlow(g, s, t, **kwargs[1])
    for limit in (1 + rng.below(4), INF):
        value = engine.run(limit)
        assert value == old.run(limit), i
        paths = engine.paths()
        assert paths == old.paths(), i
        if value < limit:
            hits["stalled"] += limit != INF  # an unlimited run always stalls
            assert engine.cut_vertices() == old.cut_vertices(), i
        else:
            hits["capped"] += 1
            if old.run(INF) > value:  # the reference goes on; the engine stays capped
                hits["refused cut"] += 1
                with pytest.raises(InternalInfeasibleError):
                    engine.cut_vertices()
        if 2 in Counter(p[0] for p in paths).values():
            hits["doubled start"] += 1


def _short_path_host(rng):
    """x = 0 and y = 1, nonadjacent, with up to two common neighbours;
    x's other neighbours A and y's B are joined by random edges, so most
    x-y paths have length three, and random edges inside A and B and to a
    few extra vertices Z give the flow room to go past the packed paths."""
    nc, na, nb, nz = rng.below(3), 2 + rng.below(7), 2 + rng.below(7), rng.below(6)
    c = range(2, 2 + nc)
    a = range(c.stop, c.stop + na)
    b = range(a.stop, a.stop + nb)
    z = range(b.stop, b.stop + nz)
    edges = [(0, v) for v in (*c, *a)] + [(1, v) for v in (*c, *b)]
    p = 2 + rng.below(5)  # tenths
    for u in range(2, z.stop):
        for v in range(max(u + 1, a.start), z.stop):
            if rng.below(10) < (p if (u in a) != (v in a) or v in z else 2):
                edges.append((u, v))
    return graph_from_edge_list(z.stop, edges)


def test_seeded_pair_cut_matches_the_explicit_network(monkeypatch):
    """``pair_vertex_cut`` starts its flow from the seed paths: the packed
    short paths, then greedy shortest paths.  Against the arc-record
    network (which starts from nothing) it gives the same value and cut
    for limits below, at and above the seed count, and a capped run that
    the seed already fills runs no search."""
    seeded, augment, apply = SetFlow.run, FlowNet._augment, FlowNet._apply
    hits = Counter()

    def audited(self, limit=INF):
        seed = self.value
        assert self.through[self.sources[0]] == seed == min(len(seeds), limit)
        got = seeded(self, limit)
        hits["beyond the seed"] += got > seed
        return got

    def counted_augment(self):
        ran.append(self.value)
        return augment(self)

    def counted_apply(self, path):
        # in(u) -> out(v) cancels a unit on the graph arc out(v) -> in(u)
        hits["seed rerouted"] += bool(ran) and any(
            node & 1 and prev != node - 1 for prev, node in zip(path, path[1:])
        )
        apply(self, path)

    monkeypatch.setattr(SetFlow, "run", audited)
    monkeypatch.setattr(FlowNet, "_augment", counted_augment)
    monkeypatch.setattr(FlowNet, "_apply", counted_apply)
    for i in range(800):
        rng = Rng(derive_seed(25, i))
        g = _short_path_host(rng)
        packed = _short_paths(g._bits, 0, 1, INF)
        seeds = _seed_paths(g, 0, 1, INF)
        assert seeds[: len(packed)] == packed, i
        hits["length-3 seed"] += any(len(mid) == 2 for mid in packed)
        hits["greedy seed"] += len(seeds) > len(packed)
        for limit in sorted({max(1, len(seeds) - 1), len(seeds) or 1, len(seeds) + 1, INF}):
            ran = []
            got = pair_vertex_cut(g, 0, 1, limit)
            assert got == ref.pair_vertex_cut(g, 0, 1, limit), (i, limit)
            if limit <= len(seeds):
                assert got == (limit, None) and not ran, (i, limit)
                hits["filled by the seed"] += 1
            elif got[1] is not None:
                hits["cut"] += 1
    assert hits["length-3 seed"] > 250 and hits["greedy seed"] > 100, hits
    assert hits["filled by the seed"] > 400 and hits["cut"] > 300, hits
    assert hits["beyond the seed"] > 150 and hits["seed rerouted"] > 50, hits


def _chorded_paths_host(rng):
    """x = 0 and y = 1 joined by k internally disjoint paths of 4 to 7
    edges, plus random chords between inner vertices of two of them.  The
    maximum is k, the degree of x, but a chord can make a shortest x-y
    path that takes vertices of two of the k paths, so the greedy seed
    stalls below k and the flow reroutes it over a reverse arc."""
    k = 2 + rng.below(4)
    paths, n = [], 2
    for _ in range(k):
        paths.append(range(n, n + 3 + rng.below(4)))
        n = paths[-1].stop
    edges = [arc for inner in paths for arc in zip((0, *inner), (*inner, 1))]
    for _ in range(1 + rng.below(2 * k)):
        p, q = rng.below(k), rng.below(k)
        if p != q:
            edges.append((paths[p][rng.below(len(paths[p]))], paths[q][rng.below(len(paths[q]))]))
    return graph_from_edge_list(n, edges)


def test_greedy_seed_paths_are_disjoint_and_keep_the_cut(monkeypatch):
    """Past the packed short paths, ``pair_vertex_cut`` seeds its flow with
    greedy shortest x-y paths.  On small G(n, p) hosts, pairs of
    G(60..80, 1/5) and chorded paths, the seed paths are x-y paths of the
    host, internally disjoint, and start with the packed ones; the value
    and cut match the arc-record network at limits below, at and above
    the seed count.  Some limits are filled by greedy paths with no
    network built, some greedy seeds stall below the maximum, and some
    flows reroute a greedy path over a reverse arc."""
    build, apply = SetFlow.__init__, FlowNet._apply
    hits = Counter()

    def counted_build(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    def counted_apply(self, path):
        # in(u) -> out(v) cancels the unit on the graph arc out(v) -> in(u)
        hits["greedy rerouted"] += any(
            node & 1 and prev != node - 1 and (node >> 1, prev >> 1) in greedy_arcs
            for prev, node in zip(path, path[1:])
        )
        apply(self, path)

    monkeypatch.setattr(SetFlow, "__init__", counted_build)
    monkeypatch.setattr(FlowNet, "_apply", counted_apply)
    kinds = ("small", "gnp", "chorded")
    with _deadline(60):
        for i in range(600):
            rng, kind = Rng(derive_seed(26, i)), kinds[i % 3]
            if kind == "small":
                g = random_graph(3 + rng.below(28), Fraction(1 + rng.below(9), 10), rng.spawn(1))
            elif kind == "gnp":
                g = random_graph(60 + rng.below(21), Fraction(1, 5), rng.spawn(1))
            else:
                g = _chorded_paths_host(rng)
            x, y = (0, 1) if kind == "chorded" else (rng.below(g.n), rng.below(g.n))
            if x == y or g.has_edge(x, y):
                continue
            packed = _short_paths(g._bits, x, y, INF)
            seeds = _seed_paths(g, x, y, INF)
            assert seeds[: len(packed)] == packed, i
            inner = [v for mid in seeds for v in mid]
            assert len(inner) == len(set(inner)) and not {x, y} & set(inner), i
            for mid in seeds:
                walk = (x, *mid, y)
                assert mid and all(map(g.has_edge, walk, walk[1:])), i
            greedy_arcs = {
                arc for mid in seeds[len(packed):] for arc in zip((x, *mid), (*mid, y))
            }
            hits["stalled", kind] += len(seeds) < ref.pair_vertex_cut(g, x, y)[0]
            for limit in sorted({max(0, len(seeds) - 1), len(seeds), len(seeds) + 1, INF}):
                built = []
                got = pair_vertex_cut(g, x, y, limit)
                assert got == ref.pair_vertex_cut(g, x, y, limit), (i, limit)
                if limit <= len(seeds):
                    assert got == (limit, None) and not built, (i, limit)
                    hits["filled by greedy paths", kind] += limit > len(packed)
    assert hits["filled by greedy paths", "gnp"] > 150, hits
    assert hits["filled by greedy paths", "chorded"] > 250, hits
    assert hits["stalled", "chorded"] > 50 and hits["greedy rerouted"] > 100, hits


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
    """G(n, 1/10..9/10), G(n, 7/10..9/10), or one of two planted hosts.

    In ``planted``, vertex 0 has the least degree d and the neighbours X, X
    is complete to a block Q and all of X but its last vertex, Y, to a
    clique R.  The first pair, 0 and the lowest vertex of Q, has d paths
    through X; the minimum cut Y, of d - 1 vertices, is found later, by
    the pairs of 0 and R, whose common neighbours are exactly Y.

    ``packed`` is built the same way up to R, but X is a clique and only
    its first c vertices (c <= d - 2) are complete to R; the next d - 1 - c
    each reach R through a private vertex of a clique M complete to R.  The
    pairs of 0 and R then have c common neighbours and d - 1 - c disjoint
    paths of length three, so d - 1 packed paths, one fewer than the
    minimum found so far, and their flows find the cut of d - 1 vertices
    first.  The pairs of 0 and M, which follow, pack d - 1 paths too, so a
    skip one path early finds no cut of d - 1 vertices on any such host."""
    if kind == "planted":
        d = 2 + rng.below(4)
        x, q = range(1, d + 1), range(d + 1, 2 * d + 1 + rng.below(5))
        r = range(q.stop, q.stop + 2 + rng.below(3))
        edges = [(0, a) for a in x] + [(a, b) for a in x for b in q]
        edges += [(a, b) for a in x[:-1] for b in r]
        edges += [(a, b) for a in r for b in r if a < b]
        edges += [(a, b) for grp in (x, q) for a in grp for b in grp if a < b and rng.below(2)]
        return graph_from_edge_list(r.stop, edges)
    if kind == "packed":
        d = 3 + rng.below(4)
        c = rng.below(d - 1)
        x, q = range(1, d + 1), range(d + 1, d + 2 + rng.below(4))
        r = range(q.stop, q.stop + d - 1 + rng.below(3))
        m = range(r.stop, r.stop + d - 1 - c)
        edges = [(0, a) for a in x] + [(a, b) for a in x for b in q]
        edges += [(a, b) for grp in (x, r, m) for a in grp for b in grp if a < b]
        edges += [(a, b) for a in x[:c] for b in r] + [(a, b) for a in m for b in r]
        edges += list(zip(x[c:], m))
        return graph_from_edge_list(m.stop, edges)
    p = Fraction(1 + rng.below(9), 10) if kind == "any" else Fraction(7 + rng.below(3), 10)
    return random_graph(2 + rng.below(26), p, rng.spawn(1))


def test_pair_skip_matches_connectivity_without_it(monkeypatch):
    """``pair_vertex_cut`` returns no cut, and builds no flow, for a pair
    with at least ``limit`` packed short paths, and
    ``vertex_connectivity_with_cutset`` asks each pair for a cut below
    ``best``.  Against a verbatim copy of the loop whose pair cuts all run
    the explicit network, so that nothing is skipped, it returns the same
    ``(k, cut)``, also on hosts whose minimum cut is a pair's common
    neighbourhood found after a larger one, and on hosts whose minimum is
    first found by a pair that packs exactly ``best - 1`` paths, some of
    length three, so a skip one path early would miss it.  Many pairs are
    skipped by packing that common neighbours alone would not skip, and
    the engine builds far fewer flows than the reference."""
    import minorforge.connectivity as connectivity
    import minorforge.flow as flow

    calls, one_short = Counter(), Counter()
    host = {}
    build = SetFlow.__init__

    def counted_build(self, *args, **kwargs):
        calls["engine flows"] += 1
        build(self, *args, **kwargs)

    def reference_cut(g, x, y, limit=INF):
        calls["reference flows"] += 1
        return ref.pair_vertex_cut(g, x, y, limit)

    def engine_cut(g, x, y, limit=INF):
        got = pair_vertex_cut(g, x, y, limit)
        paths = _short_paths(g._bits, x, y, INF)
        if got[1] is not None and len(paths) == limit - 1:
            one_short[host["kind"]] += max(map(len, paths)) == 2
        return got

    def packed(bits, x, y, limit):
        paths = _short_paths(bits, x, y, limit)
        calls["packing skip"] += len(paths) >= limit > (bits[x] & bits[y]).bit_count()
        return paths

    monkeypatch.setattr(SetFlow, "__init__", counted_build)
    monkeypatch.setattr(flow, "_short_paths", packed)
    monkeypatch.setattr(connectivity, "pair_vertex_cut", engine_cut)
    monkeypatch.setattr(sep_ref, "pair_vertex_cut", reference_cut)
    below_min_degree = Counter()
    kinds = ("any", "dense", "planted", "packed")
    for i in range(440):
        host["kind"] = kind = kinds[i % 4]
        g = _connectivity_host(Rng(derive_seed(23, i)), kind)
        got = vertex_connectivity_with_cutset(g)
        assert got == sep_ref.vertex_connectivity_with_cutset(g), (kind, i)
        below_min_degree[kind] += got[0] < g.min_degree()
    assert below_min_degree["planted"] == below_min_degree["packed"] == 110, below_min_degree
    # each packed host's minimum is first found one path short of the skip
    assert one_short["packed"] == 110, one_short
    assert calls["reference flows"] - calls["engine flows"] > 3000, calls
    assert calls["packing skip"] > 1500, calls


def _capped_hosts():
    """Seeded G(n, p) and planted hosts, complete graphs, disconnected
    graphs, and both graphs on two vertices."""
    kinds = ("any", "dense", "planted", "packed")
    for i in range(120):
        yield _connectivity_host(Rng(derive_seed(27, i)), kinds[i % 4])
    for n in range(2, 8):
        yield complete_graph(n)
    for i in range(4):
        g = random_graph(4 + i, Fraction(3, 4), Rng(derive_seed(27, 1, i)))
        shifted = [(u + 4 + i, v + 4 + i) for u, v in g.edges()]
        yield graph_from_edge_list(2 * (4 + i), g.edges() + shifted)
    yield graph_from_edge_list(2, [])
    yield graph_from_edge_list(2, [(0, 1)])


def test_capped_connectivity_matches_the_uncapped_call():
    """Asked whether the connectivity reaches ``limit``, the search gives
    the uncapped ``(k, cutset)`` when ``k < limit`` and ``(limit, None)``
    otherwise, for every limit from 0 to n + 1."""
    below = 0
    for g in _capped_hosts():
        full = vertex_connectivity_with_cutset(g)
        for limit in range(g.n + 2):
            got = vertex_connectivity_with_cutset(g, limit)
            want = full if full[0] < limit else (limit, None)
            assert got == want, (g, g.edges(), limit)
            below += full[0] < limit
    assert below > 1000, below


def test_uncapped_connectivity_still_demands_a_cutset(monkeypatch):
    """A pair loop that finds no cut is an internal fault when no limit
    was asked for, and the answer ``(limit, None)`` when one was."""
    import minorforge.connectivity as connectivity

    monkeypatch.setattr(connectivity, "pair_vertex_cut", lambda g, x, y, limit: (limit, None))
    path = graph_from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(InternalInfeasibleError, match="must admit some cutset"):
        vertex_connectivity_with_cutset(path)
    assert vertex_connectivity_with_cutset(path, 1) == (1, None)
