"""Test-only references for ``test_woven.py``.

The exhaustive wovenness loop as it was before ``check_wovenness``
memoised its rooted model searches.  ``_spend``, ``_rooted_dense_model``,
``_triple_witness`` and ``_all_triples`` are kept verbatim;
``check_wovenness`` is the triple loop as it was then, one
``_triple_witness`` call per triple, but takes its node budget as an
argument, skips the argument checks and returns the nodes it spent next
to the report.  Every rooted model search runs afresh here, so
the memoised library must return the same reports and run out of budget at
the same budgets.

``realize_woven_from_dense_minor`` as it was before it worked in host-id
vertex masks, kept verbatim: it renumbers ids between the host and the
subgraph without the removed vertices, holds roots and endpoints as sets,
and scans for each pair's connector.  The library must return the same
witness wherever this copy does, and raise wherever it refuses; a refusal
here that the construction's counting rules out is, in the library, an
InternalInfeasibleError or the attached search's intake refusal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from minorforge.config import SEARCH_NODES
from minorforge.connectivity import vertex_connectivity_with_cutset
from minorforge.errors import (
    DensityNotMetError,
    HypothesisViolatedError,
    InternalInfeasibleError,
    TooLargeError,
    check_count,
    check_rational,
)
from minorforge.graph import (
    Graph,
    _induced,
    complement_max_degree,
    greedy_dense_subgraph,
    induced_subgraph,
    is_eps_t_dense,
    mask_of,
    mask_vertices,
)
from minorforge.model import MinorModel, is_rooted_at
from minorforge.paths import PathFamily, _check_pair_convention, require_paths
from minorforge.rooted import rooted_from_minor
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


def realize_woven_from_dense_minor(
    g: Graph,
    eps: Fraction,
    a: int,
    request,
    dense_model: MinorModel | None = None,
) -> tuple[MinorModel, PathFamily]:
    """Witness one woven request in an 8a-connected host that carries a
    (eps/256, 32a)-dense minor.

    ``request`` is (roots, sources, targets) with a roots and 3a
    endpoints per list; roots may not appear among the endpoints here.
    The dense minor is ``dense_model`` when given, which must live in
    ``g`` (HypothesisViolatedError) and be dense enough
    (DensityNotMetError).  Otherwise it is the singletons of the greedy
    32a-vertex subgraph, and HypothesisViolatedError is raised when that
    subgraph is not dense enough.  The construction peels low-quality
    branch sets from the dense minor, re-attaches the remainder to fresh
    root neighbors plus the endpoints, routes each pair through a shared
    extra branch set, and assembles the rooted model from the first a
    attached fragments.  Returns the model and the linkage, fully audited
    and disjoint.
    """
    eps = check_rational("eps", eps, 1)
    check_count("the root count a", a, 2)
    try:
        r_tuple, s_tuple, t_tuple = (tuple(x) for x in request)
    except (TypeError, ValueError):  # not three parts, or a part not a list
        raise HypothesisViolatedError(
            "the request must be three lists: roots, sources, targets", evidence=request
        ) from None
    b = 3 * a
    if len(r_tuple) != a or len(set(r_tuple)) != a:
        raise HypothesisViolatedError(f"need exactly {a} distinct roots")
    if len(s_tuple) != b or len(t_tuple) != b:
        raise HypothesisViolatedError(f"need exactly {b} endpoints per side")
    g.vertex_set(r_tuple + s_tuple + t_tuple)
    _check_pair_convention(list(zip(s_tuple, t_tuple)))
    endpoint_set = set(s_tuple) | set(t_tuple)
    if set(r_tuple) & endpoint_set:
        raise HypothesisViolatedError(
            "roots and endpoints must be disjoint for this construction"
        )

    kappa, cutset = vertex_connectivity_with_cutset(g, 8 * a)
    if kappa < 8 * a:
        raise HypothesisViolatedError(
            f"host connectivity {kappa} is below {8 * a}",
            evidence=cutset,
        )

    eps_fine = eps / 256
    t_dense = 32 * a
    if dense_model is not None:
        if dense_model.host != g:
            raise HypothesisViolatedError(
                "the dense model must live in the given host"
            )
        pattern = dense_model.pattern
        if not is_eps_t_dense(pattern, eps_fine, t_dense):
            raise DensityNotMetError("the supplied model is not dense enough")
        j_model = dense_model
    else:
        cand = greedy_dense_subgraph(g, t_dense) if g.n >= t_dense else ()
        dense = induced_subgraph(g, cand)[0]
        if not cand or not is_eps_t_dense(dense, eps_fine, t_dense):
            raise HypothesisViolatedError(
                f"the greedy subgraph on {t_dense} vertices is not "
                f"({eps_fine}, {t_dense})-dense; pass a dense model"
            )
        # singletons are connected and pairwise disjoint, and cand ascends
        # as the induced subgraph numbers it: that subgraph is their pattern
        j_model = MinorModel._derived(g, [frozenset((v,)) for v in cand], dense)

    # drop branch sets whose pattern vertex misses too many others, then
    # those touching the roots or the collapsed equal pairs
    pat = j_model.pattern
    half = eps * a / 2
    trivial = [i for i in range(b) if s_tuple[i] == t_tuple[i]]
    trivial_set = {s_tuple[i] for i in trivial}
    removed = set(r_tuple) | trivial_set
    kept = [
        i
        for i in range(pat.n)
        if Fraction(pat.n - 1 - pat.degree(i)) <= half
        and not (j_model.fragments[i] & removed)
    ]
    m = len(kept)
    if m < 15 * a:
        raise DensityNotMetError(
            f"only {m} usable branch sets remain, need {15 * a}"
        )

    # one fresh neighbor per root, outside everything already spoken for
    taken = mask_of(r_tuple) | mask_of(endpoint_set)
    r_prime: list[int] = []
    for r in r_tuple:
        free = g.neighbor_bits(r) & ~taken
        if not free:
            raise HypothesisViolatedError(
                f"root {r} has no free neighbor left"
            )
        r_prime.append((free & -free).bit_length() - 1)
        taken |= free & -free

    alive = sorted(set(range(g.n)) - removed)
    g1, old_of_new = induced_subgraph(g, alive)
    new_of_old = {v: i for i, v in enumerate(old_of_new)}
    # the kept fragments avoid every removed vertex, so renumbering them
    # into g1 changes neither their connectivity nor their adjacency: j1's
    # pattern is j_model's induced on kept
    j1 = MinorModel._derived(
        g1,
        [
            frozenset(new_of_old[v] for v in j_model.fragments[i])
            for i in kept
        ],
        _induced(pat._bits, mask_of(kept)),
    )
    n_av = complement_max_degree(j1.pattern)
    active = [i for i in range(b) if s_tuple[i] != t_tuple[i]]
    attach_old = (
        list(r_prime)
        + [s_tuple[i] for i in active]
        + [t_tuple[i] for i in active]
    )
    t_att = len(attach_old)
    if m < n_av + 2 * t_att:
        raise DensityNotMetError(
            "too few branch sets for the attachment order"
        )
    attach = [new_of_old[v] for v in attach_old]
    attached = rooted_from_minor(g1, attach, j1, n_av)

    frags = attached.fragments
    where: dict[int, int] = {}
    for idx in range(t_att):
        (hit,) = frags[idx] & frozenset(attach)
        where[hit] = idx
    f_pat = attached.pattern

    # each pair rides its two attachment fragments plus one shared
    # neighbor fragment; distinct pairs get distinct connectors
    chosen: set[int] = set()
    paths_out: list[tuple[int, ...] | None] = [None] * b
    for i in trivial:
        paths_out[i] = (s_tuple[i],)
    for i in active:
        si = new_of_old[s_tuple[i]]
        ti = new_of_old[t_tuple[i]]
        fs, ft = where[si], where[ti]
        j_pick = next(
            (
                c
                for c in range(t_att, len(frags))
                if c not in chosen
                and f_pat.has_edge(c, fs)
                and f_pat.has_edge(c, ft)
            ),
            None,
        )
        if j_pick is None:
            raise DensityNotMetError(
                "no shared branch set left to route a pair"
            )
        chosen.add(j_pick)
        route = frags[fs] | frags[j_pick] | frags[ft]
        found = g1.shortest_path(1 << si, 1 << ti, mask_of(route))
        if found is None:
            raise InternalInfeasibleError(
                "routing inside three joined branch sets failed"
            )
        paths_out[i] = tuple(old_of_new[x] for x in found)

    final_frags = []
    for pos, r in enumerate(r_tuple):
        idx = where[new_of_old[r_prime[pos]]]
        final_frags.append(
            frozenset(old_of_new[x] for x in frags[idx]) | {r}
        )
    model = MinorModel(g, final_frags)
    if not is_rooted_at(model, r_tuple):
        raise InternalInfeasibleError("assembled model lost its rooting")
    if not is_eps_t_dense(model.pattern, eps, a):
        raise DensityNotMetError("assembled pattern misses the density mark")
    fam = PathFamily(
        [p for p in paths_out if p is not None],
        "linkage",
        pairs=tuple(zip(s_tuple, t_tuple)),
    )
    require_paths(g, fam)
    if model.used_vertices() & fam.vertices():
        raise InternalInfeasibleError("model and linkage overlap")
    return model, fam
