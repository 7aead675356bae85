"""Vertex connectivity with an explicit cutset witness."""

from __future__ import annotations

from .errors import OrderTooSmallError, check_count, check_internal
from .flow import INF, pair_vertex_cut
from .graph import Graph, mask_vertices


def vertex_connectivity_with_cutset(g: Graph, limit: int = INF):
    """Connectivity ``k`` plus a minimum cutset of size ``k``.

    Returns ``(k, cutset)`` where ``cutset`` is a sorted tuple, or
    ``(n - 1, None)`` for a complete graph (which has no cutset at all).
    A caller that asks only whether ``k >= limit`` gets ``(limit, None)``
    when it is, and the search stops short of the pair cuts that reach
    ``limit``.  Requires at least two vertices.
    """
    limit = check_count("limit", limit, 0)
    n = g.n
    if n < 2:
        raise OrderTooSmallError("connectivity needs at least two vertices")
    if 2 * g.m == n * (n - 1):
        return min(n - 1, limit), None
    if not g.is_connected():
        # lone vertices disconnect nothing; the empty set is the witness
        return (0, ()) if limit else (0, None)
    # Any minimum cutset either avoids some minimum-degree vertex v (then it
    # separates v from a non-neighbor) or contains v (then v keeps neighbors
    # on both sides, a nonadjacent pair inside N(v)).  Checking those pair
    # cuts therefore finds a true minimum.
    v = min(range(n), key=lambda u: (g.degree(u), u))
    bits = g._bits
    nv = bits[v]
    # v's non-neighbours ascending, then each nonadjacent pair x < y in N(v)
    pairs = [(v, w) for w in mask_vertices((1 << n) - 1 & ~nv & ~(1 << v))]
    for x in mask_vertices(nv):
        pairs.extend((x, y) for y in mask_vertices((nv & ~bits[x]) >> (x + 1) << (x + 1)))
    best = limit
    best_cut: tuple[int, ...] | None = None
    for x, y in pairs:
        # a pair whose seed, the packed short paths then greedy shortest
        # ones, reaches ``best`` disjoint paths returns no cut before any
        # flow is built; a shorter seed starts the flow and leaves the cut
        # as it is, since the cut is the same for every maximum flow
        value, cut = pair_vertex_cut(g, x, y, limit=best)
        if cut is not None and value < best:
            best = value
            best_cut = cut
    check_internal(best_cut is not None or limit < INF, "non-complete graph must admit some cutset")
    return best, best_cut


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects ``g``
    (``n - 1`` for the complete graph).  Requires at least two vertices."""
    return vertex_connectivity_with_cutset(g)[0]
