"""Test-only reference: the stuck-descent search as it was before it read
the descent's own rows, kept verbatim apart from this docstring and the
imports below.

It searches a renumbered pattern graph, with states as frozensets of
frozensets of pattern vertices; ``test_extract.py`` requires the
mask-native search to visit the same states in the same order, spend the
same budget and return the same moves.
"""

from __future__ import annotations

from minorforge.config import SEARCH_NODES
from minorforge.errors import Budget, ExtractionFailedError
from minorforge.graph import Graph, mask_of


def _search_small_minor(h: Graph, d: int):
    budget = Budget(SEARCH_NODES, ExtractionFailedError, "fallback search budget exhausted")
    h_bits = [h.neighbor_bits(v) for v in range(h.n)]

    def nb_mask(f: frozenset[int]) -> int:
        bits = 0
        for v in f:
            bits |= h_bits[v]
        return bits & ~mask_of(f)

    def achieved(state: frozenset[frozenset[int]]) -> bool:
        if not state or len(state) > d:
            return False
        frs = sorted(state, key=min)
        masks = [mask_of(f) for f in frs]
        nbms = [nb_mask(f) for f in frs]
        degs = [
            sum(1 for j in range(len(frs)) if j != i and nbms[i] & masks[j])
            for i in range(len(frs))
        ]
        return 2 * min(degs) >= d

    visited: set[frozenset[frozenset[int]]] = set()
    moves: list[tuple] = []

    def rec(state: frozenset[frozenset[int]]) -> bool:
        budget.spend()
        if state in visited:
            return False
        visited.add(state)
        if achieved(state):
            return True
        frs = sorted(state, key=min)
        for i in range(len(frs)):
            mi = nb_mask(frs[i])
            for j in range(i + 1, len(frs)):
                if not mi & mask_of(frs[j]):
                    continue
                nxt = (state - {frs[i], frs[j]}) | {frs[i] | frs[j]}
                moves.append(("contract", frs[i], frs[j]))
                if rec(nxt):
                    return True
                moves.pop()
        for f in frs:
            moves.append(("delete", f))
            if rec(state - {f}):
                return True
            moves.pop()
        return False

    return moves if rec(frozenset(frozenset((v,)) for v in range(h.n))) else None

