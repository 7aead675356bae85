"""Test-only reference: the exhaustive wovenness loop as it was before
``check_wovenness`` memoised its rooted model searches.  ``_spend``,
``_rooted_dense_model``, ``_triple_witness`` and ``_all_triples`` are kept
verbatim; ``check_wovenness`` keeps the library's triple loop but takes its
node budget as an argument, skips the argument checks and returns the
nodes it spent next to the report.  Every rooted model search runs afresh
here, so ``test_woven.py`` can require the memoised library to return the
same reports and to run out of budget at the same budgets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from minorforge.config import SEARCH_NODES
from minorforge.errors import TooLargeError
from minorforge.graph import Graph, mask_of, mask_vertices
from minorforge.model import MinorModel
from minorforge.paths import PathFamily, require_paths
from minorforge.woven import WovenReport, WovenTriple


def _spend(budget: list[int]) -> None:
    budget[0] -= 1
    if budget[0] <= 0:
        raise TooLargeError("wovenness search budget exhausted")


def _rooted_dense_model(
    g: Graph, allowed: int, roots, eps: Fraction, budget: list[int]
) -> MinorModel | None:
    a = len(roots)
    # joined >= (1 - eps) * a(a-1)/2, in integers
    num, den = eps.numerator, eps.denominator
    need = (den - num) * a * (a - 1)
    start = tuple(1 << r for r in roots)
    seen = {start}
    stack = [start]
    while stack:
        _spend(budget)
        frags = stack.pop()
        reach = [g.neighborhood(f) for f in frags]
        joined = sum(
            1
            for i in range(a)
            for j in range(i + 1, a)
            if reach[i] & frags[j]
        )
        if a == 1 or 2 * den * joined >= need:
            return MinorModel(g, [mask_vertices(f) for f in frags])
        used = 0
        for f in frags:
            used |= f
        fresh = []
        for idx in range(a):
            for v in mask_vertices(reach[idx] & allowed & ~used):
                cand = frags[:idx] + (frags[idx] | 1 << v,) + frags[idx + 1 :]
                if cand not in seen:
                    seen.add(cand)
                    fresh.append(cand)
        stack.extend(reversed(fresh))
    return None


def _triple_witness(
    g: Graph, eps: Fraction, roots, pairs, budget: list[int]
) -> tuple[MinorModel, PathFamily] | None:
    endpoints = mask_of(v for p in pairs for v in p)
    shared_roots = mask_of(roots) & endpoints
    forbidden = mask_of(roots) & ~endpoints
    k = len(pairs)
    paths: list[tuple[int, ...]] = []

    def attempt_model(used: int):
        allowed = ((1 << g.n) - 1) & ~used | shared_roots
        model = _rooted_dense_model(g, allowed, roots, eps, budget)
        if model is None:
            return None
        fam = PathFamily(list(paths), "linkage", pairs=pairs)
        return model, require_paths(g, fam)

    def rec(i: int, used: int):
        if i == k:
            return attempt_model(used)
        s, t = pairs[i]
        if (used >> s | used >> t) & 1:
            return None
        if s == t:
            paths.append((s,))
            out = rec(i + 1, used | 1 << s)
            paths.pop()
            return out
        # t is never blocked: it is unused, an endpoint and off the walk
        blocked = used | forbidden | endpoints & ~(1 << s | 1 << t)
        acc = [s]

        def walk(cur: int, on: int):
            _spend(budget)
            for w in mask_vertices(g.neighbor_bits(cur) & ~(on | blocked)):
                if w == t:
                    paths.append(tuple(acc) + (t,))
                    out = rec(i + 1, used | on | 1 << t)
                    paths.pop()
                    if out is not None:
                        return out
                else:
                    acc.append(w)
                    out = walk(w, on | 1 << w)
                    acc.pop()
                    if out is not None:
                        return out
            return None

        return walk(s, 1 << s)

    return rec(0, 0)


def _all_triples(n: int, a: int, b: int):
    for roots in combinations(range(n), a):
        for srcs in combinations(range(n), b):
            for tgts in permutations(range(n), b):
                if all(
                    srcs[i] != tgts[j]
                    for i in range(b)
                    for j in range(b)
                    if i != j
                ):
                    yield roots, srcs, tgts


def check_wovenness(
    g: Graph, eps, a: int, b: int, nodes: int = SEARCH_NODES
) -> tuple[WovenReport, int]:
    """The report, and the nodes spent of ``nodes``; TooLargeError when
    the budget runs out."""
    eps = Fraction(eps)
    budget = [nodes]
    records: list[WovenTriple] = []
    counterexample: WovenTriple | None = None
    for roots, srcs, tgts in _all_triples(g.n, a, b):
        witness = _triple_witness(
            g, eps, roots, tuple(zip(srcs, tgts)), budget
        )
        if witness is None:
            counterexample = WovenTriple(roots, srcs, tgts, False)
            records.append(counterexample)
            break
        model, fam = witness
        records.append(WovenTriple(roots, srcs, tgts, True, model, fam))
    report = WovenReport(
        verdict="proven" if counterexample is None else "refuted-with-counterexample",
        eps=eps,
        a=a,
        b=b,
        checked=len(records),
        records=tuple(records),
        counterexample=counterexample,
    )
    return report, nodes - budget[0]
