"""Test-only reference: the colouring solvers as they were before they kept
one mask per colour class.  ``_greedy_clique``, ``_colorable_with`` and
``_chi`` are kept verbatim; they walk vertex lists and read ``g.degree``.
``chromatic_number_exact`` and ``is_chromatic_separable`` keep the
library's search but take their node budget as an argument, skip the
argument checks and return the nodes spent next to the answer, so
``test_coloring.py`` can require the library to give the same answers and
to run out of budget at the same budgets.
"""

from __future__ import annotations

from minorforge.config import SEARCH_NODES
from minorforge.errors import Budget, TooLargeError
from minorforge.graph import Graph, induced_subgraph, mask_vertices


def _greedy_clique(g: Graph) -> list[int]:
    """A maximal clique grown greedily from each high-degree seed; best kept."""
    if g.n == 0:
        return []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    best: list[int] = []
    for seed in order[: min(5, g.n)]:
        clique = [seed]
        cand = g.neighbor_bits(seed)
        while cand:
            u = min(
                mask_vertices(cand),
                key=lambda x: (-(g.neighbor_bits(x) & cand).bit_count(), x),
            )
            clique.append(u)
            cand &= g.neighbor_bits(u)
        if len(clique) > len(best):
            best = clique
    return best


def _colorable_with(g: Graph, k: int, clique: list[int], budget: Budget) -> list[int] | None:
    """Backtracking k-coloring, clique precolored, one budget node a step; None if impossible."""
    color = [-1] * g.n
    for i, v in enumerate(clique):
        color[v] = i
    uncolored = g.n - len(clique)

    def step(remaining: int, max_used: int) -> bool:
        budget.spend()
        if remaining == 0:
            return True
        pick, pick_key, pick_sat = -1, None, 0
        for v in range(g.n):
            if color[v] != -1:
                continue
            sat = 0
            for w in mask_vertices(g.neighbor_bits(v)):
                if color[w] != -1:
                    sat |= 1 << color[w]
            key = (-sat.bit_count(), -g.degree(v), v)
            if pick_key is None or key < pick_key:
                pick, pick_key, pick_sat = v, key, sat
        limit = min(k, max_used + 1)
        for c in range(limit):
            if not (pick_sat >> c) & 1:
                color[pick] = c
                if step(remaining - 1, max(max_used, c + 1)):
                    return True
                color[pick] = -1
        return False

    if step(uncolored, len(clique)):
        return color
    return None


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


def chromatic_number_exact(g: Graph, nodes: int = SEARCH_NODES) -> tuple[int, int]:
    """chi(g) and the nodes spent of ``nodes``; TooLargeError when the
    budget runs out."""
    budget = Budget(nodes, TooLargeError, "coloring search budget exhausted")
    return _chi(g, budget), budget.spent


def is_chromatic_separable(g: Graph, m: int, nodes: int = SEARCH_NODES):
    """The library's answer and the nodes spent of ``nodes``;
    TooLargeError when the budget runs out."""
    budget = Budget(nodes, TooLargeError, "separability search budget exhausted")
    chi = _chi(g, budget)
    need = chi - m
    if need <= 0:
        # even empty subgraphs qualify
        return (True, ((), ())), budget.spent
    memo: dict[int, int] = {}

    def chi_of(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        sub, _ = induced_subgraph(g, mask_vertices(mask))
        val = _chi(sub, budget)
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
            return (True, (tuple(mask_vertices(a_mask)), tuple(mask_vertices(b_mask)))), budget.spent
    return (False, None), budget.spent
