from __future__ import annotations

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minorforge import (
    Graph,
    average_degree,
    complement_max_degree,
    complete_graph,
    edge_density,
    graph_from_edge_list,
    greedy_dense_subgraph,
    induced_subgraph,
    is_eps_t_dense,
    mask_of,
    random_bipartite,
    random_graph,
)
from minorforge.errors import (
    HypothesisViolatedError,
    NotAnEdgeError,
    OrderTooSmallError,
    UnknownVertexError,
)
from minorforge.graph import mask_vertices
from minorforge.rng import _GOLDEN, _LANES, Rng, derive_seed

from conftest import petersen, run_optimized
from model_reference import contract_edge_mapped
from rng_reference import (
    ReferenceRng,
    plant_rejection,
    reference_random_bipartite,
    reference_random_graph,
)


def test_construction_and_access():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 0)])  # duplicate collapses
    assert g.n == 4
    assert g.m == 3
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degree(2) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 3)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    g.audit()


def test_construction_rejects_bad_edges():
    with pytest.raises(NotAnEdgeError):
        Graph(3, [(1, 1)])
    with pytest.raises(UnknownVertexError):
        Graph(3, [(0, 3)])
    with pytest.raises(OrderTooSmallError):
        Graph(-1)


def test_masks_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert mask_vertices(0b100101) == [0, 2, 5]


def _peeled(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def test_mask_vertices_matches_the_bit_loop():
    """Wide masks are read off their binary digits and narrow ones bit by
    bit; both give the set bits in ascending order, on either side of the
    twelve-bit switch and at every width up to 300."""
    rng = Rng(derive_seed(17, 0))
    masks = [0, (1 << 300) - 1, (1 << 13) - 1, (1 << 12) - 1]
    masks += [1 << i for i in range(301)]
    for width in range(301):
        for num, den in ((1, 16), (1, 2), (9, 10), (1, 1)):
            masks.append(sum(1 << i for i in range(width) if rng.below(den) < num))
        if width >= 13:
            for ones in (12, 13):
                picked = list(range(width))
                rng.shuffle(picked)
                masks.append(mask_of(picked[:ones]))
    assert any(m.bit_count() == 12 for m in masks) and any(m.bit_count() == 13 for m in masks)
    for mask in masks:
        assert mask_vertices(mask) == _peeled(mask), bin(mask)


def test_components():
    g = graph_from_edge_list(5, [(0, 1), (2, 3)])
    assert g.components_in(0b11111) == [0b00011, 0b01100, 0b10000]
    assert not g.is_connected()
    assert complete_graph(3).is_connected()
    assert Graph(0).is_connected()


def test_density_measures_exact():
    g = complete_graph(4)
    assert average_degree(g) == Fraction(3)
    assert edge_density(g) == Fraction(1)
    h = graph_from_edge_list(4, [(0, 1), (2, 3)])
    assert edge_density(h) == Fraction(2, 6)


def test_eps_t_dense():
    # K_4 misses nothing; any eps works
    assert is_eps_t_dense(complete_graph(4), Fraction(0))
    # 5 edges of 6: dense iff eps >= 1/6, exact boundary included
    g = graph_from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_eps_t_dense(g, Fraction(1, 6))
    assert not is_eps_t_dense(g, Fraction(1, 7))
    # explicit t must match the order
    assert not is_eps_t_dense(g, Fraction(1, 2), t=5)
    with pytest.raises(OrderTooSmallError):
        is_eps_t_dense(Graph(1), Fraction(1, 2))


def test_complement_max_degree():
    assert complement_max_degree(complete_graph(5)) == 0
    g = graph_from_edge_list(4, [(0, 1)])
    assert complement_max_degree(g) == 3  # vertices 2,3 miss all three others


def test_induced_subgraph_mapping():
    g = petersen()
    sub, old = induced_subgraph(g, [0, 1, 5, 6])
    assert old == (0, 1, 5, 6)
    assert sub.n == 4
    # edges present: 0-1 (outer), 0-5 (spoke); absent: 5-6 (inner skips one)
    assert sub.has_edge(0, 1)
    assert sub.has_edge(0, 2)
    assert not sub.has_edge(2, 3)


def test_contract_edge():
    g = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    h, mapping = contract_edge_mapped(g, 1, 2)
    assert h == graph_from_edge_list(3, [(0, 1), (1, 2)])
    assert mapping == (0, 1, 1, 2)
    with pytest.raises(NotAnEdgeError):
        contract_edge_mapped(g, 0, 3)


def test_greedy_dense_subgraph_on_near_complete():
    # remove 3 edges from K_8, peel to every order, recheck density by hand
    rng = Rng(42)
    edges = complete_graph(8).edges()
    rng.shuffle(edges)
    g = graph_from_edge_list(8, sorted(edges[3:]))
    prev = edge_density(g)
    for t in range(8, 1, -1):
        keep = greedy_dense_subgraph(g, t)
        assert len(keep) == t
        sub, _ = induced_subgraph(g, keep)
        dens = edge_density(sub)
        assert dens >= prev
        prev = dens


def test_greedy_dense_subgraph_validates():
    with pytest.raises(OrderTooSmallError):
        greedy_dense_subgraph(complete_graph(3), 1)
    with pytest.raises(OrderTooSmallError):
        greedy_dense_subgraph(complete_graph(3), 4)


def test_random_graph_seeded_and_in_range():
    g1 = random_graph(30, Fraction(1, 2), Rng(7))
    g2 = random_graph(30, Fraction(1, 2), Rng(7))
    assert g1 == g2
    g3 = random_graph(30, Fraction(1, 2), Rng(8))
    assert g1 != g3
    assert random_graph(10, Fraction(0), Rng(1)).m == 0
    assert random_graph(10, Fraction(1), Rng(1)).m == 45


def test_random_bipartite_sides():
    g = random_bipartite(3, 4, Fraction(1), Rng(0))
    assert g.n == 7
    assert g.m == 12
    for u in range(3):
        for v in range(3):
            assert not g.has_edge(u, v) or u == v


def test_graph_from_edge_list_matches_constructor():
    edges = [(0, 1), (1, 2)]
    assert graph_from_edge_list(3, edges) == Graph(3, edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_random_graph_audits_clean(n, seed):
    g = random_graph(n, Fraction(1, 3), Rng(seed))
    g.audit()
    assert 0 <= g.m <= n * (n - 1) // 2


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1))
def test_greedy_density_never_drops(n, seed):
    g = random_graph(n, Fraction(2, 3), Rng(seed))
    if g.m == 0:
        return
    seq = [edge_density(induced_subgraph(g, greedy_dense_subgraph(g, t))[0])
           for t in range(n, 1, -1)]
    assert all(b >= a for a, b in zip(seq, seq[1:]))


# -- the mask traversal methods against the set-based helpers they replaced --
#
# _ref_comps_in, _ref_bfs_path_within and _ref_bfs_tree_extend are the former
# build._comps_in, woven._bfs_path_within and paths._bfs_tree_extend, kept as
# the references: the seeded outputs depend on their component order and on
# their choice among shortest paths.


def _ref_comps_in(g: Graph, vs) -> list[set[int]]:
    left = set(vs)
    out = []
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in left and w not in comp:
                    comp.add(w)
                    stack.append(w)
        left -= comp
        out.append(comp)
    return sorted(out, key=min)


def _ref_bfs_path_within(g: Graph, allowed, s: int, t: int):
    if s == t:
        return (s,)
    prev: dict[int, int | None] = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in sorted(g.neighbors(u)):
            if w in allowed and w not in prev:
                prev[w] = u
                if w == t:
                    path = [t]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                queue.append(w)
    return None


def _ref_bfs_tree_extend(g: Graph, tree: set[int], targets: set[int]):
    parent: dict[int, int] = {v: -1 for v in tree}
    queue = sorted(tree)
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if u in targets:
            path = []
            while u != -1:
                path.append(u)
                u = parent[u]
            return path
        for w in sorted(g.neighbors(u)):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return None


def _ref_reach(g: Graph, start, within) -> set[int]:
    seen = set(start) & set(within)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in within and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _shortest_path_count(g: Graph, s: int, t: int, allowed) -> int:
    """Number of shortest s-t paths whose vertices after s lie in allowed."""
    dist, ways = {s: 0}, {s: 1}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in allowed:
                continue
            if w not in dist:
                dist[w], ways[w] = dist[u] + 1, 0
                queue.append(w)
            if dist[w] == dist[u] + 1:
                ways[w] += ways[u]
    return ways.get(t, 0) if s != t else 1


def _random_subset(rng: Rng, n: int, num: int, den: int) -> set[int]:
    return {v for v in range(n) if rng.bernoulli(Fraction(num, den))}


def test_mask_methods_match_set_references():
    ties = long_tree_paths = 0
    for case in range(300):
        rng = Rng(derive_seed(2024, case))
        n = 1 + rng.below(28)
        p = Fraction(1 + rng.below(9), 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.bernoulli(p)]
        g = Graph(n, edges)
        g.audit()
        # mask-derived access against an adjacency built from the edge list
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert [g.neighbors(v) for v in range(n)] == [frozenset(a) for a in adj]
        assert [g.degree(v) for v in range(n)] == [len(a) for a in adj]
        assert g.edges() == sorted(edges)
        assert g.m == len(edges)
        for _ in range(4):
            within = _random_subset(rng, n, 1 + rng.below(4), 4)
            start = _random_subset(rng, n, 1, 4)
            wmask = mask_of(within)
            assert g.components_in(wmask) == [
                mask_of(c) for c in _ref_comps_in(g, within)
            ]
            assert g.reach(mask_of(start), wmask) == mask_of(_ref_reach(g, start, within))
            assert g.neighborhood(mask_of(start)) == mask_of(
                w for v in start for w in adj[v]
            )
            s, t = rng.below(n), rng.below(n)
            got = g.shortest_path(1 << s, 1 << t, wmask)
            assert got == _ref_bfs_path_within(g, within, s, t)
            ties += _shortest_path_count(g, s, t, within) > 1
            # many sources, many targets, nothing forbidden
            sources = _random_subset(rng, n, 1, 8)
            targets = _random_subset(rng, n, 1, 8) - sources
            if sources and targets:
                want = _ref_bfs_tree_extend(g, sources, targets)
                got = g.shortest_path(mask_of(sources), mask_of(targets), (1 << n) - 1)
                assert got == (None if want is None else tuple(reversed(want)))
                long_tree_paths += want is not None and len(want) > 2
    # the comparisons above must include real ties between shortest paths
    assert ties > 100 and long_tree_paths > 100


_CORRUPT_AUDIT_SCRIPT = """
from minorforge import Graph
from minorforge.errors import InternalInfeasibleError

# each corruption keeps the handshake and breaks exactly one other invariant
for name, bits in (("asymmetric", (0b010, 0b100, 0)), ("loop", (0b001, 0b010, 0))):
    g = Graph(3, [(0, 1)])
    g._bits = bits
    try:
        g.audit()
    except InternalInfeasibleError as err:
        print(name, "refused:", err)
    else:
        raise SystemExit(name + " mask passed the audit")
"""


def test_audit_rejects_corrupt_masks_under_optimize():
    out = run_optimized(_CORRUPT_AUDIT_SCRIPT)
    assert "asymmetric refused: asymmetric edge" in out
    assert "loop refused: loop at 0" in out


# -- seeded generation against the one-draw-at-a-time reference -------------

_GEN_PROBS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 20),
              Fraction(4, 5), Fraction(2, 7), Fraction(999, 1000)]


def _same_graph_and_stream(got, want, rng, ref):
    got.audit()
    assert got == want and got.m == want.m
    assert rng.next_u64() == ref.next_u64()


def test_generators_match_the_reference():
    for n in range(71):
        for i, p in enumerate(_GEN_PROBS):
            seed = derive_seed(14, n, i)
            rng, ref = Rng(seed), ReferenceRng(seed)
            _same_graph_and_stream(
                random_graph(n, p, rng), reference_random_graph(n, p, ref), rng, ref
            )
            a = n // 3
            rng, ref = Rng(seed), ReferenceRng(seed)
            _same_graph_and_stream(
                random_bipartite(a, n - a, p, rng),
                reference_random_bipartite(a, n - a, p, ref), rng, ref,
            )


def test_generators_skip_a_planted_rejection_like_the_reference():
    # draw 40 is 2**64 - 1, refused for the bound 7: it falls inside row 0
    # of G(65, 2/7) and inside row 1 of the 3 x 30 bipartite graph
    seed = plant_rejection(40)
    p = Fraction(2, 7)
    for make, reference, args, pairs in (
        (random_graph, reference_random_graph, (65,), 65 * 64 // 2),
        (random_bipartite, reference_random_bipartite, (3, 30), 3 * 30),
    ):
        rng, ref = Rng(seed), ReferenceRng(seed)
        got = make(*args, p, rng)
        # one draw per pair plus the refused one
        assert rng._state == (seed + (pairs + 1) * _GOLDEN) & ((1 << 64) - 1)
        _same_graph_and_stream(got, reference(*args, p, ref), rng, ref)


@pytest.mark.parametrize("k", [_LANES - 1, _LANES])
def test_generators_skip_a_planted_rejection_at_a_batch_edge(k):
    # the one coin mask of each generator spans more than one batch of
    # draws; the refused draw closes the first batch or opens the second
    seed = plant_rejection(k)
    p = Fraction(2, 7)
    for make, reference, args, pairs in (
        (random_graph, reference_random_graph, (50,), 50 * 49 // 2),
        (random_bipartite, reference_random_bipartite, (20, 60), 20 * 60),
    ):
        assert pairs > _LANES + 1
        rng, ref = Rng(seed), ReferenceRng(seed)
        got = make(*args, p, rng)
        assert rng._state == (seed + (pairs + 1) * _GOLDEN) & ((1 << 64) - 1)
        _same_graph_and_stream(got, reference(*args, p, ref), rng, ref)


def test_mask_built_graphs_match_edge_lists():
    g = random_graph(40, Fraction(1, 3), Rng(21))
    keep = [v for v in range(40) if v % 3]
    sub, old = induced_subgraph(g, keep)
    sub.audit()
    pos = {v: i for i, v in enumerate(old)}
    assert sub == Graph(len(old), [(pos[u], pos[v]) for u, v in g.edges()
                                   if u in pos and v in pos])
    for n in range(6):
        k = complete_graph(n)
        k.audit()
        assert k == Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    with pytest.raises(OrderTooSmallError):
        complete_graph(-1)
    with pytest.raises(OrderTooSmallError):
        random_graph(-1, Fraction(1, 2), Rng(0))
    with pytest.raises(OrderTooSmallError):
        random_bipartite(-1, 3, Fraction(1, 2), Rng(0))


@pytest.mark.parametrize("p", [Fraction(-1, 10), Fraction(11, 10), 2])
def test_generators_refuse_p_outside_the_unit_interval(p):
    for draw in (
        lambda: random_graph(4, p, Rng(0)),
        lambda: random_bipartite(2, 2, p, Rng(0)),
    ):
        with pytest.raises(HypothesisViolatedError) as err:
            draw()
        assert err.value.evidence == p


def _induced_by_neighbour(g, keep):
    """``induced_subgraph`` as it was before the run relabelling: each kept
    neighbour moved to its new index one bit at a time through a dict."""
    old = sorted(set(keep))
    pos = {v: i for i, v in enumerate(old)}
    kept = mask_of(old)
    bits = []
    for v in old:
        b = 0
        for w in mask_vertices(g.neighbor_bits(v) & kept):
            b |= 1 << pos[w]
        bits.append(b)
    return Graph._from_masks(len(old), bits), tuple(old)


def test_induced_subgraph_runs_match_the_per_neighbour_relabel():
    """Relabelling by runs of consecutive kept vertices gives the graph the
    per-neighbour loop gave: empty, full, singleton, alternating and random
    keep sets, on hosts from empty to complete."""
    rng = Rng(derive_seed(44, 0))
    hosts = [graph_from_edge_list(0, []), complete_graph(1), petersen(), complete_graph(9)]
    hosts += [random_graph(n, Fraction(k, 4), rng.spawn(n * 4 + k))
              for n in (2, 7, 31, 64, 70) for k in range(5)]
    for g in hosts:
        n = g.n
        keeps = [[], list(range(n)), [n // 2] if n else [],
                 range(0, n, 2), range(1, n, 2), range(0, n, 3)]
        keeps += [[v for v in range(n) if rng.below(q)] for q in (2, 3, 8)]
        keeps += [[v for v in range(n) if not rng.below(q)] for q in (2, 5)]
        for keep in keeps:
            got = induced_subgraph(g, keep)
            assert got == _induced_by_neighbour(g, keep), (g, list(keep))
            got[0].audit()


_CORRUPT_MASKS_SCRIPT = """
from minorforge import Graph
from minorforge.errors import InternalInfeasibleError

# each set of masks breaks exactly one of the invariants _from_masks checks
cases = (
    ("count", 3, (0b010, 0b001)),
    ("range", 2, (0b100, 0b100)),
    ("loop", 2, (0b01, 0b10)),
    ("parity", 3, (0b010, 0, 0)),
)
for name, n, bits in cases:
    try:
        Graph._from_masks(n, bits)
    except InternalInfeasibleError as err:
        print(name, "refused:", err)
    else:
        raise SystemExit(name + " masks were accepted")
"""


def test_from_masks_rejects_corrupt_masks_under_optimize():
    out = run_optimized(_CORRUPT_MASKS_SCRIPT)
    assert "count refused: one mask per vertex" in out
    assert "range refused: a neighbour out of range" in out
    assert "loop refused: loop at 0" in out
    assert "parity refused: odd degree sum" in out
