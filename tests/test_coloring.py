from __future__ import annotations

from fractions import Fraction

import pytest

from minorforge import (
    chromatic_number_exact,
    complete_graph,
    graph_from_edge_list,
    is_chromatic_separable,
    random_graph,
)
from minorforge.errors import HypothesisViolatedError, TooLargeError
from minorforge.rng import Rng, derive_seed

from conftest import brute_chromatic, brute_colorable, petersen


def test_structured_values():
    assert chromatic_number_exact(complete_graph(6)) == 6
    assert chromatic_number_exact(graph_from_edge_list(4, [])) == 1
    c5 = graph_from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert chromatic_number_exact(c5) == 3
    assert chromatic_number_exact(petersen()) == 3


def test_matches_brute_force_on_seeded_graphs():
    for i in range(60):
        rng = Rng(derive_seed(10, i))
        n = 2 + rng.below(7)
        p = Fraction(rng.below(9) + 1, 10)
        g = random_graph(n, p, rng.spawn(1))
        assert chromatic_number_exact(g) == brute_chromatic(g)


def test_cap_refusal():
    with pytest.raises(TooLargeError):
        chromatic_number_exact(complete_graph(21))


def _brute_separable(g, m):
    """Definition-literal scan: disjoint a, b with chi >= chi(g) - m each."""
    chi = brute_chromatic(g)
    need = chi - m
    if need <= 0:
        return True
    full = (1 << g.n) - 1
    memo = {}

    def chi_at_least(mask, k):
        if mask not in memo:
            verts = [v for v in range(g.n) if (mask >> v) & 1]
            sub = graph_from_edge_list(
                len(verts),
                [
                    (verts.index(u), verts.index(v))
                    for u, v in g.edges()
                    if u in verts and v in verts
                ],
            )
            memo[mask] = brute_chromatic(sub)
        return memo[mask] >= k

    a_mask = full
    while a_mask:
        if a_mask.bit_count() >= need and chi_at_least(a_mask, need):
            rest = full & ~a_mask
            b_mask = rest
            while b_mask:
                if b_mask.bit_count() >= need and chi_at_least(b_mask, need):
                    return True
                b_mask = (b_mask - 1) & rest
        a_mask -= 1
    return False


def test_separable_matches_brute_force():
    for i in range(25):
        rng = Rng(derive_seed(11, i))
        n = 3 + rng.below(6)
        g = random_graph(n, Fraction(1, 2), rng.spawn(1))
        m = rng.below(3)
        got, witness = is_chromatic_separable(g, m)
        assert got == _brute_separable(g, m)
        if got and witness != ((), ()):
            a, b = witness
            assert not set(a) & set(b)
            need = chromatic_number_exact(g) - m
            for side in (a, b):
                verts = list(side)
                sub = graph_from_edge_list(
                    len(verts),
                    [
                        (verts.index(u), verts.index(v))
                        for u, v in g.edges()
                        if u in verts and v in verts
                    ],
                )
                assert not brute_colorable(sub, need - 1)


def test_separable_trivial_and_caps():
    # one clique cannot be split into two of nearly full chromatic number
    assert is_chromatic_separable(complete_graph(6), 2) == (False, None)
    # with slack m >= chi the empty pair qualifies
    assert is_chromatic_separable(complete_graph(3), 3)[0] is True
    with pytest.raises(TooLargeError):
        is_chromatic_separable(complete_graph(15), 1)
    for n in (0, 3):  # a negative slack m is refused, not shifted
        with pytest.raises(HypothesisViolatedError, match="nonnegative") as info:
            is_chromatic_separable(complete_graph(n), -1)
        assert info.value.evidence == -1
