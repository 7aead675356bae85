"""Vertex connectivity with an explicit cutset witness."""

from __future__ import annotations

from .errors import OrderTooSmallError, check_internal
from .flow import INF, pair_vertex_cut
from .graph import Graph


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
    nv = sorted(g.neighbors(v))
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


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects ``g``
    (``n - 1`` for the complete graph).  Requires at least two vertices."""
    return vertex_connectivity_with_cutset(g)[0]
