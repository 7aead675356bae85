from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from minorforge import (
    chromatic_number_exact,
    complete_graph,
    graph_from_edge_list,
    is_chromatic_separable,
    random_graph,
)
from minorforge.errors import Budget, HypothesisViolatedError, TooLargeError
from minorforge.graph import induced_subgraph, mask_vertices
from minorforge.rng import Rng, derive_seed

import coloring_reference as coloring_ref
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
        with pytest.raises(HypothesisViolatedError, match="^m must be at least 0$") as info:
            is_chromatic_separable(complete_graph(n), -1)
        assert info.value.evidence == -1


def _complement_of_cycle(n):
    return graph_from_edge_list(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if (v - u) % n not in (1, n - 1)]
    )


def _colouring_corpus():
    """(host, separability slack or None): seeded G(n, p) for n up to 20,
    the benchmark's G(18-20, 1/2) colouring hosts and G(10, 1/2)
    separability hosts with m = 0, 1, 2, and the complements of C17 and
    C19."""
    for i in range(150):
        rng = Rng(derive_seed(41, i))
        n = 1 + rng.below(20)
        yield random_graph(n, Fraction(1 + rng.below(9), 10), rng.spawn(1)), None
    for i in range(9):
        rng = Rng(derive_seed(42, i))
        yield random_graph(18 + i % 3, Fraction(1, 2), rng.spawn(1)), None
        yield random_graph(10, Fraction(1, 2), rng.spawn(2)), i % 3
    for n in (17, 19):
        yield _complement_of_cycle(n), None


def _recorded_budgets(monkeypatch):
    """Every Budget the colouring module builds from now on, in order."""
    import minorforge.coloring as coloring

    built = []

    class Recorded(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(coloring, "Budget", Recorded)
    return built


def test_colouring_matches_the_reference_node_for_node(monkeypatch):
    """Colour-class masks change no step of the search: the library and the
    list-walking reference pick the same clique, return the same colouring
    for every k from the clique size to chi, and spend the same nodes in
    each; chi and the separability answer agree, with equal spends."""
    import minorforge.coloring as coloring

    built = _recorded_budgets(monkeypatch)
    separable = Counter()
    for g, m in _colouring_corpus():
        full = (1 << g.n) - 1
        clique = coloring._greedy_clique(g._bits, full)
        assert clique == coloring_ref._greedy_clique(g), g.edges()
        chi, spent = coloring_ref.chromatic_number_exact(g)
        assert chromatic_number_exact(g) == chi
        assert built[-1].spent == spent, g.edges()
        for k in range(len(clique), chi + 1) if g.m else ():
            ours = Budget(10**9, TooLargeError, "unused")
            theirs = Budget(10**9, TooLargeError, "unused")
            got = coloring._colorable_with(g._bits, full, k, clique, ours)
            assert got == coloring_ref._colorable_with(g, k, clique, theirs)
            assert (got is not None) == (k == chi)
            assert ours.spent == theirs.spent
        if m is not None:
            expected, spent = coloring_ref.is_chromatic_separable(g, m)
            assert is_chromatic_separable(g, m) == expected
            assert built[-1].spent == spent, (g.edges(), m)
            separable[expected[0]] += 1
    assert separable[True] and separable[False]


def test_colouring_on_host_rows_matches_the_induced_reference():
    """On every vertex mask of the separability hosts, the empty mask,
    singletons and edgeless masks included, chi of the rows the host
    induces on the mask equals the reference's chi of the renumbered
    induced subgraph, and the two spend the same nodes."""
    import minorforge.coloring as coloring

    kinds = Counter()
    for g, m in _colouring_corpus():
        if m is None:
            continue
        for mask in range(1 << g.n):
            sub = induced_subgraph(g, mask_vertices(mask))[0]
            ours = Budget(10**9, TooLargeError, "unused")
            theirs = Budget(10**9, TooLargeError, "unused")
            got = coloring._chi(g._bits, mask, ours)
            assert got == coloring_ref._chi(sub, theirs), (g.edges(), mask)
            assert ours.spent == theirs.spent, (g.edges(), mask)
            kinds["single" if sub.n == 1 else "edgeless" if not sub.m else "other"] += 1
    assert kinds["single"] and kinds["edgeless"] > kinds["single"] and kinds["other"]


@pytest.mark.parametrize("host", ["petersen", "complement of C9"])
def test_colouring_runs_out_at_the_same_budgets(monkeypatch, host):
    """For every node budget up to the reference's whole spend and one past
    it, chi and separability raise TooLargeError exactly when the reference
    does, and otherwise give its answer."""
    import minorforge.coloring as coloring

    g = petersen() if host == "petersen" else _complement_of_cycle(9)
    searches = (
        (chromatic_number_exact, coloring_ref.chromatic_number_exact),
        (lambda h: is_chromatic_separable(h, 0),
         lambda h, nodes=10**9: coloring_ref.is_chromatic_separable(h, 0, nodes)),
    )
    for ours, theirs in searches:
        _, total = theirs(g)
        raised = 0
        for nodes in range(1, total + 2):
            monkeypatch.setattr(coloring, "SEARCH_NODES", nodes)
            try:
                expected, _ = theirs(g, nodes)
            except TooLargeError:
                with pytest.raises(TooLargeError, match="budget exhausted"):
                    ours(g)
                raised += 1
            else:
                assert ours(g) == expected
        assert raised == total
