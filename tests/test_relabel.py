"""Metamorphic checks: renaming the vertices of a host changes no answer.

The exact solvers and the connectivity loop visit vertices and pairs in
label order, and a pair cut returns early by its packed short paths, so a
permutation of the labels walks each of them along another route.  The
connectivity, the chromatic number, whether a linkage exists and the woven
verdict must not depend on that route.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from minorforge import (
    audit_path_family,
    check_wovenness,
    chromatic_number_exact,
    find_linkage,
    graph_from_edge_list,
    vertex_connectivity,
)
from minorforge.config import SEARCH_NODES
from minorforge.errors import Budget, TooLargeError
from minorforge.woven import _triple_witness


@st.composite
def _relabelled(draw):
    """A host on at most 10 vertices, three permutations of its labels, and
    up to three pairs with distinct endpoints."""
    n = draw(st.integers(2, 10))
    slots = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    perms = draw(st.lists(st.permutations(range(n)), min_size=3, max_size=3))
    ends = draw(st.permutations(range(n)))
    k = draw(st.integers(1, min(3, n // 2)))
    pairs = [(ends[2 * i], ends[2 * i + 1]) for i in range(k)]
    return graph_from_edge_list(n, [e for e, kept in zip(slots, keep) if kept]), perms, pairs


@settings(max_examples=300, deadline=None)
@given(_relabelled())
def test_relabelling_changes_no_answer(case):
    g, perms, pairs = case
    kappa, chi = vertex_connectivity(g), chromatic_number_exact(g)
    linked = find_linkage(g, pairs) is not None
    for perm in perms:
        h = graph_from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert vertex_connectivity(h) == kappa
        assert chromatic_number_exact(h) == chi
        moved = find_linkage(h, [(perm[s], perm[t]) for s, t in pairs])
        assert (moved is not None) == linked
        if moved is not None:
            assert audit_path_family(h, moved) == []


@st.composite
def _woven_case(draw):
    """A host on at most 6 vertices, one permutation of its labels, a root
    count and a pair count."""
    n = draw(st.integers(2, 6))
    slots = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    perm = draw(st.permutations(range(n)))
    a, b = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    return graph_from_edge_list(n, [e for e, kept in zip(slots, keep) if kept]), perm, a, b


@settings(max_examples=300, deadline=None)
@given(_woven_case())
def test_relabelling_keeps_the_woven_verdict(case):
    """The verdict survives a relabelling, and a refuting triple of the
    relabelled host, mapped back, has no witness on the original host."""
    g, perm, a, b = case
    eps = Fraction(1, 2)
    h = graph_from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    report = check_wovenness(h, eps, a, b)
    assert report.verdict == check_wovenness(g, eps, a, b).verdict
    bad = report.counterexample
    if bad is not None:
        back = {perm[v]: v for v in range(g.n)}
        roots = tuple(back[r] for r in bad.roots)
        pairs = tuple((back[s], back[t]) for s, t in zip(bad.sources, bad.targets))
        budget = Budget(SEARCH_NODES, TooLargeError, "wovenness search budget exhausted")
        assert _triple_witness(g, eps, roots, pairs, budget, {}) is None
