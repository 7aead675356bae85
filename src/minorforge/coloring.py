"""Exact chromatic number and chromatic separability.

A greedy clique gives the lower bound, and k counts up from it until the
k-colorability search succeeds.  That search precolors the clique and never
opens more than one fresh color per step, and it is complete, so the first
k it succeeds at is the chromatic number.  Both solvers are exponential: they
refuse hosts above config's vertex caps, and a call stops at SEARCH_NODES nodes.
"""

from __future__ import annotations

from .config import COLORING_CAP, SEARCH_NODES, SEPARABLE_CAP
from .errors import Budget, TooLargeError, check_count
from .graph import Graph, mask_vertices


def _greedy_clique(rows: list[int], live: int) -> list[int]:
    """A maximal clique of the rows induced on the mask ``live``, grown
    greedily from each high-degree seed; best kept.  Each step adds the
    candidate with most neighbours among the candidates, least on a tie."""
    deg = [(row & live).bit_count() for row in rows]
    # a stable sort: equal degrees stay in ascending order
    order = sorted(mask_vertices(live), key=deg.__getitem__, reverse=True)
    best: list[int] = []
    for seed in order[:5]:
        # a clique through seed has at most deg + 1 vertices, and later
        # seeds have no larger degree, so none can beat best
        if deg[seed] < len(best):
            break
        clique = [seed]
        cand = rows[seed] & live
        while cand:
            u, most, rest = -1, -1, cand
            while rest:  # ascending, so a tie keeps the least vertex
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                inside = (rows[x] & cand).bit_count()
                if inside > most:
                    u, most = x, inside
            clique.append(u)
            cand &= rows[u]
        if len(clique) > len(best):
            best = clique
    return best


def _step(rows, deg, classes, k: int, budget: Budget, free: int, used: int) -> bool:
    """Colour the vertex of ``free`` with most distinct neighbour colours,
    then most live neighbours (``deg``), then the least, with each free
    colour in turn and at most one past ``used``; then colour the rest."""
    budget.spend()
    if not free:
        return True
    live = classes[:used]
    pick, pick_sat, pick_deg, rest = -1, -1, -1, free
    while rest:  # ascending, so a tie keeps the least vertex
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        nb = rows[v]
        sat = 0
        for cls in live:
            if nb & cls:
                sat += 1
        if sat > pick_sat or sat == pick_sat and deg[v] > pick_deg:
            pick, pick_sat, pick_deg = v, sat, deg[v]
    nb, bit = rows[pick], 1 << pick
    for c in range(min(k, used + 1)):
        if not nb & classes[c]:
            classes[c] |= bit
            if _step(rows, deg, classes, k, budget, free ^ bit, max(used, c + 1)):
                return True
            classes[c] ^= bit
    return False


def _colorable_with(rows: list[int], live: int, k: int, clique: list[int], budget: Budget):
    """Backtracking k-coloring of the rows induced on the mask ``live``,
    clique precolored, one budget node a ``_step``; None if impossible,
    else each vertex's colour (-1 off ``live``).  Every colour is kept as
    the mask of its class, so a vertex's neighbour colours are the classes
    its row meets."""
    deg = [(row & live).bit_count() for row in rows]
    classes = [0] * k
    for i, v in enumerate(clique):
        classes[i] = 1 << v
    uncolored = live
    for v in clique:
        uncolored ^= 1 << v
    if not _step(rows, deg, classes, k, budget, uncolored, len(clique)):
        return None
    color = [-1] * len(rows)
    for c, cls in enumerate(classes):
        for v in mask_vertices(cls):
            color[v] = c
    return color


def chromatic_number_exact(g: Graph) -> int:
    """Exact chi(g); refuses graphs over ``COLORING_CAP`` vertices."""
    if g.n > COLORING_CAP:
        raise TooLargeError(f"coloring cap {COLORING_CAP} exceeded by n={g.n}")
    budget = Budget(SEARCH_NODES, TooLargeError, "coloring search budget exhausted")
    return _chi(g._bits, (1 << g.n) - 1, budget)


def _chi(rows: list[int], live: int, budget: Budget) -> int:
    """chi of the graph the host rows ``rows`` induce on the mask ``live``."""
    if not live:
        return 0
    if not any(rows[v] & live for v in mask_vertices(live)):
        return 1
    clique = _greedy_clique(rows, live)
    k = len(clique)
    while _colorable_with(rows, live, k, clique, budget) is None:
        k += 1
    return k


def is_chromatic_separable(g: Graph, m: int):
    """Whether disjoint vertex sets A, B exist with chi(G[A]), chi(G[B]) >= chi(G)-m.

    Returns (False, None) or (True, (a_tuple, b_tuple)).  Since chromatic
    number is monotone under vertex addition, it suffices to scan bipartitions
    A, V-A; chi values per subset are cached.  One budget covers the call:
    every colouring step and every split scanned.
    """
    check_count("m", m, 0)
    if g.n > SEPARABLE_CAP:
        raise TooLargeError(f"separability cap {SEPARABLE_CAP} exceeded by n={g.n}")
    budget = Budget(SEARCH_NODES, TooLargeError, "separability search budget exhausted")
    full = (1 << g.n) - 1
    chi = _chi(g._bits, full, budget)
    need = chi - m
    if need <= 0:
        # even empty subgraphs qualify
        return True, ((), ())
    memo: dict[int, int] = {}

    def chi_of(mask: int) -> int:
        if mask not in memo:
            memo[mask] = _chi(g._bits, mask, budget)
        return memo[mask]

    # vertex 0 pinned to side A so each unordered split is visited once
    for half in range(1 << (g.n - 1)):
        budget.spend()
        a_mask = (half << 1) | 1
        b_mask = full & ~a_mask
        if a_mask.bit_count() < need or b_mask.bit_count() < need:
            continue
        if chi_of(a_mask) >= need and chi_of(b_mask) >= need:
            return True, (tuple(mask_vertices(a_mask)), tuple(mask_vertices(b_mask)))
    return False, None
