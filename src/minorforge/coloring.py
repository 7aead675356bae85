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
from .graph import Graph, _induced, mask_vertices


def _greedy_clique(g: Graph) -> list[int]:
    """A maximal clique grown greedily from each high-degree seed; best kept.
    Each step adds the candidate with the most neighbours among the
    candidates, the least such vertex on a tie."""
    bits = g._bits
    deg = [b.bit_count() for b in bits]
    # a stable sort: equal degrees stay in ascending order
    order = sorted(range(g.n), key=deg.__getitem__, reverse=True)
    best: list[int] = []
    for seed in order[:5]:
        # a clique through seed has at most deg + 1 vertices, and later
        # seeds have no larger degree, so none can beat best
        if deg[seed] < len(best):
            break
        clique = [seed]
        cand = bits[seed]
        while cand:
            u, most, rest = -1, -1, cand
            while rest:  # ascending, so a tie keeps the least vertex
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                inside = (bits[x] & cand).bit_count()
                if inside > most:
                    u, most = x, inside
            clique.append(u)
            cand &= bits[u]
        if len(clique) > len(best):
            best = clique
    return best


def _colorable_with(g: Graph, k: int, clique: list[int], budget: Budget) -> list[int] | None:
    """Backtracking k-coloring, clique precolored, one budget node a step; None if impossible.

    Each step colours the uncoloured vertex of most distinct neighbour
    colours, then of most neighbours, then the least, trying its free
    colours in ascending order and at most one colour not used yet.  Every
    colour is kept as the mask of its class, so a vertex's neighbour colours
    are the classes its neighbour mask meets."""
    bits = g._bits
    deg = [b.bit_count() for b in bits]
    classes = [0] * k
    for i, v in enumerate(clique):
        classes[i] = 1 << v
    uncolored = (1 << g.n) - 1
    for v in clique:
        uncolored ^= 1 << v

    def step(free: int, used: int) -> bool:
        budget.spend()
        if not free:
            return True
        live = classes[:used]
        pick, pick_sat, pick_deg, rest = -1, -1, -1, free
        while rest:  # ascending, so a tie keeps the least vertex
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nb = bits[v]
            sat = 0
            for cls in live:
                if nb & cls:
                    sat += 1
            if sat > pick_sat or sat == pick_sat and deg[v] > pick_deg:
                pick, pick_sat, pick_deg = v, sat, deg[v]
        nb, bit = bits[pick], 1 << pick
        for c in range(min(k, used + 1)):
            if not nb & classes[c]:
                classes[c] |= bit
                if step(free ^ bit, max(used, c + 1)):
                    return True
                classes[c] ^= bit
        return False

    if not step(uncolored, len(clique)):
        return None
    color = [-1] * g.n
    for c, cls in enumerate(classes):
        for v in mask_vertices(cls):
            color[v] = c
    return color


def chromatic_number_exact(g: Graph) -> int:
    """Exact chi(g); refuses graphs over ``COLORING_CAP`` vertices."""
    if g.n > COLORING_CAP:
        raise TooLargeError(f"coloring cap {COLORING_CAP} exceeded by n={g.n}")
    return _chi(g, Budget(SEARCH_NODES, TooLargeError, "coloring search budget exhausted"))


def _chi(g: Graph, budget: Budget) -> int:
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    clique = _greedy_clique(g)
    k = len(clique)
    while _colorable_with(g, k, clique, budget) is None:
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
    chi = _chi(g, budget)
    need = chi - m
    if need <= 0:
        # even empty subgraphs qualify
        return True, ((), ())
    memo: dict[int, int] = {}

    def chi_of(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        # every mask is a split of range(g.n), so no member needs a check
        val = _chi(_induced(g._bits, mask), budget)
        memo[mask] = val
        return val

    full = (1 << g.n) - 1
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
