"""Test-only reference: the separation-avoiding search and the vertex
connectivity loop as they were before the forced-cut skips, kept verbatim
apart from this docstring, the imports below, the search-node cap, now
the constant ``SEARCH_NODES``, and the capped flow's cut, now read by
``SetFlow.run`` and ``cut_vertices``.

Both build a capped flow for every subfamily or pair, including those
whose answer adjacency already forces.  ``test_rooted.py`` and
``test_flow.py`` require the library to return exactly what this code
returns.
"""

from __future__ import annotations

import itertools
import math

from minorforge.config import SEARCH_NODES
from minorforge.errors import (
    HypothesisViolatedError,
    OrderTooSmallError,
    TooLargeError,
    check_internal,
)
from minorforge.flow import INF, SetFlow, pair_vertex_cut
from minorforge.graph import Graph, mask_vertices
from minorforge.paths import _separation_from_cut


def find_separation_avoiding(g: Graph, s, t_order: int, d_list, n_avoid: int):
    """A separation (a, b) with ``s ⊆ a``, order below ``t_order``, and more
    than ``n_avoid`` of the given disjoint sets inside ``b ∖ a``, or
    ``None`` when no such separation exists.  Decided exactly: for each
    (n_avoid+1)-subfamily, a set-flow with uncuttable targets finds the
    smallest cut keeping ``s`` away from the subfamily's union."""
    s = frozenset(s)
    for v in s:
        g.check_vertex(v)
    d_sets = [frozenset(d) for d in d_list]
    claimed: set[int] = set()
    for d in d_sets:
        if not d:
            raise HypothesisViolatedError("avoidable sets must be nonempty")
        for v in d:
            g.check_vertex(v)
        if claimed & d:
            raise HypothesisViolatedError("avoidable sets must be disjoint")
        claimed |= d
    if n_avoid < 0:
        raise HypothesisViolatedError("the avoidance count must be nonnegative")
    k = n_avoid + 1
    if k > len(d_sets):
        return None
    if math.comb(len(d_sets), k) > SEARCH_NODES:
        raise TooLargeError("too many subfamilies to enumerate")
    for combo in itertools.combinations(range(len(d_sets)), k):
        union = frozenset().union(*(d_sets[i] for i in combo))
        if s & union:
            continue
        flow = SetFlow(g, s, union, uncuttable_targets=True)
        if flow.run(t_order) >= t_order:
            continue
        cut = flow.cut_vertices()
        sep = _separation_from_cut(g, s, cut)
        check_internal(sep.order < t_order, "avoiding cut is too large")
        check_internal(s <= sep.a, "avoiding cut lost a source")
        check_internal(
            all(d_sets[i] <= sep.b - sep.a for i in combo),
            "avoiding cut leaves a chosen set on the near side",
        )
        check_internal(not sep.violations(g), "avoiding cut is not a separation")
        return sep
    return None


def vertex_connectivity_with_cutset(g: Graph):
    """Connectivity ``k`` plus a minimum cutset of size ``k``.

    Returns ``(k, cutset)`` where ``cutset`` is a sorted tuple, or
    ``(n - 1, None)`` for a complete graph (which has no cutset at all).
    Requires at least two vertices.
    """
    n = g.n
    if n < 2:
        raise OrderTooSmallError("connectivity needs at least two vertices")
    if 2 * g.m == n * (n - 1):
        return n - 1, None
    if not g.is_connected():
        # lone vertices disconnect nothing; the empty set is the witness
        return 0, ()
    # Any minimum cutset either avoids some minimum-degree vertex v (then it
    # separates v from a non-neighbor) or contains v (then v keeps neighbors
    # on both sides, a nonadjacent pair inside N(v)).  Checking those pair
    # cuts therefore finds a true minimum.
    v = min(range(n), key=lambda u: (g.degree(u), u))
    best = INF
    best_cut: tuple[int, ...] | None = None
    pairs: list[tuple[int, int]] = []
    nv = mask_vertices(g.neighbor_bits(v))
    for w in range(n):
        if w != v and not g.has_edge(v, w):
            pairs.append((v, w))
    for i, x in enumerate(nv):
        for y in nv[i + 1 :]:
            if not g.has_edge(x, y):
                pairs.append((x, y))
    for x, y in pairs:
        value, cut = pair_vertex_cut(g, x, y, limit=best)
        if cut is not None and value < best:
            best = value
            best_cut = cut
    check_internal(best_cut is not None, "non-complete graph must admit some cutset")
    return best, best_cut
