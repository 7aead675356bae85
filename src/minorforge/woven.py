"""Simultaneous rooted dense models and linkages ("wovenness").

A host is (eps, a, b)-woven when for every root set R of size a and
endpoint lists S, T of length b (equal entries allowed only at equal
index), some dense-pattern model rooted at R coexists with a linkage
joining the pairs, the two meeting exactly in R & (S | T).

Two entry points: ``check_wovenness`` decides the property triple by
triple, and ``realize_woven_from_dense_minor`` produces a witness for one
request in a highly connected host carrying a very dense minor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .config import SEARCH_NODES, WOVEN_CAP
from .connectivity import vertex_connectivity_with_cutset
from .errors import (
    Budget,
    DensityNotMetError,
    HypothesisViolatedError,
    TooLargeError,
    check_count,
    check_internal,
    check_rational,
)
from .graph import (
    Graph,
    _induced,
    complement_max_degree,
    greedy_dense_subgraph,
    induced_subgraph,
    is_eps_t_dense,
    mask_of,
    mask_vertices,
)
from .model import MinorModel, is_rooted_at
from .paths import PathFamily, _check_pair_convention, require_paths
from .rooted import _attached_model, _live_graph

__all__ = [
    "WovenReport",
    "WovenTriple",
    "check_wovenness",
    "realize_woven_from_dense_minor",
]


@dataclass(frozen=True)
class WovenTriple:
    """One tested (roots, sources, targets) choice and its outcome."""

    roots: tuple[int, ...]
    sources: tuple[int, ...]
    targets: tuple[int, ...]
    ok: bool
    model: MinorModel | None = None
    linkage: PathFamily | None = None


@dataclass(frozen=True)
class WovenReport:
    """Verdict plus the per-triple records behind it, in the order the
    admissible triples were decided.

    verdict is "proven" when every admissible triple has a witness, and
    "refuted-with-counterexample" when the last record, also stored as
    ``counterexample``, has none.
    """

    verdict: str
    eps: Fraction
    a: int
    b: int
    checked: int
    records: tuple[WovenTriple, ...]
    counterexample: WovenTriple | None


def _host_tables(g: Graph) -> tuple[list[tuple[int, ...]], list[int]]:
    """Two tables indexed by every vertex mask of ``g``: the mask's
    vertices in ascending order, and its neighbourhood.  Each entry extends
    the one of the mask without its lowest vertex, so both cost one step
    per mask; ``check_wovenness`` caps hosts at ``WOVEN_CAP`` vertices, so
    a table has at most 2**WOVEN_CAP entries."""
    bits = g._bits
    size = 1 << g.n
    verts: list[tuple[int, ...]] = [()] * size
    nb = [0] * size
    for m in range(1, size):
        low = m & -m
        v = low.bit_length() - 1
        verts[m] = (v,) + verts[m ^ low]
        nb[m] = nb[m ^ low] | bits[v]
    return verts, nb


def _rooted_dense_model(
    g: Graph, allowed: int, roots, eps: Fraction, budget: Budget, tables
) -> MinorModel | None:
    """Exhaustive search for a model rooted at ``roots`` with fragments
    inside the vertex mask ``allowed`` whose pattern misses at most an eps
    share of its pairs.  Fragments (vertex masks) grow one adjacent vertex
    at a time; states are deduplicated, so the search covers every tuple
    of disjoint connected supersets of the root singletons.  ``tables``
    are the host's ``_host_tables``.

    The host and eps are fixed within one ``check_wovenness``, so its
    ``_Weave`` memo keys this search by ``(allowed, roots)`` alone."""
    verts, nb = tables
    a = len(roots)
    # joined >= (1 - eps) * a(a-1)/2, in integers
    num, den = eps.numerator, eps.denominator
    need = (den - num) * a * (a - 1)
    start = tuple(1 << r for r in roots)
    seen = {start}
    stack = [start]
    while stack:
        budget.spend()
        frags = stack.pop()
        if a == 1:
            return MinorModel(g, [verts[f] for f in frags])
        reach = [nb[f] for f in frags]
        joined = 0
        for i in range(a - 1):
            for j in range(i + 1, a):
                if reach[i] & frags[j]:
                    joined += 1
        if 2 * den * joined >= need:
            return MinorModel(g, [verts[f] for f in frags])
        used = 0
        for f in frags:
            used |= f
        fresh = []
        for idx in range(a):
            for v in verts[reach[idx] & allowed & ~used]:
                cand = frags[:idx] + (frags[idx] | 1 << v,) + frags[idx + 1 :]
                if cand not in seen:
                    seen.add(cand)
                    fresh.append(cand)
        stack.extend(reversed(fresh))
    return None


class _Weave:
    """One ``check_wovenness`` call's state: the host's ``_host_tables``,
    rows and ``full`` mask, eps, the budget, the memo and the triple being
    decided.  The walk takes the rest as arguments, so a triple builds no
    closure.  The memo maps ``(allowed, roots)`` to the nodes a model search
    spent and its result, and charges a repeat those nodes again, so the
    budget runs out where searching afresh would.  It maps ``(pairs,
    paths)`` to that linkage's family once ``require_paths`` passed it;
    later triples share that family, and the audit spends no nodes."""

    def __init__(self, g: Graph, eps: Fraction, budget: Budget, memo: dict):
        self.g, self.eps, self.budget, self.memo = g, eps, budget, memo
        self.tables = _host_tables(g)
        self.verts, self.bits, self.full = self.tables[0], g._bits, (1 << g.n) - 1
        self.paths: list[tuple[int, ...]] = []

    def witness(self, roots, root_mask: int, pairs, endpoints: int):
        """Decide one triple exactly: enumerate every linkage for ``pairs``
        that stays off the non-endpoint roots, and for each try to plant a
        rooted dense model in what remains.  ``None`` means no witness
        exists for this triple."""
        self.roots, self.pairs, self.endpoints = roots, pairs, endpoints
        self.shared_roots = root_mask & endpoints
        self.forbidden = root_mask & ~endpoints
        return self._link(0, 0)

    def _link(self, i: int, used: int):
        """The first witness that links pairs i.. off the mask ``used``."""
        if i == len(self.pairs):
            return self._model(used)
        s, t = self.pairs[i]
        if (used >> s | used >> t) & 1:
            return None
        if s == t:
            self.paths.append((s,))
            out = self._link(i + 1, used | 1 << s)
            self.paths.pop()
            return out
        # t is never blocked: it is unused, an endpoint and off the walk
        blocked = self.forbidden | self.endpoints & ~(1 << s | 1 << t)
        return self._walk(i, t, blocked, [s], used | 1 << s)

    def _walk(self, i: int, t: int, blocked: int, acc: list[int], on: int):
        """Extend pair i's path ``acc`` to ``t`` off ``on`` (``acc`` and the
        earlier paths), one budget node a step, neighbours ascending."""
        self.budget.spend()
        for w in self.verts[self.bits[acc[-1]] & ~(on | blocked)]:
            if w == t:
                self.paths.append(tuple(acc) + (t,))
                out = self._link(i + 1, on | 1 << t)
                self.paths.pop()
            else:
                acc.append(w)
                out = self._walk(i, t, blocked, acc, on | 1 << w)
                acc.pop()
            if out is not None:
                return out
        return None

    def _model(self, used: int):
        """A rooted dense model off ``used`` and the audited ``paths``, or None."""
        allowed, budget, memo = self.full & ~used | self.shared_roots, self.budget, self.memo
        hit = memo.get((allowed, self.roots))
        if hit is None:
            before = budget.spent
            model = _rooted_dense_model(self.g, allowed, self.roots, self.eps, budget, self.tables)
            memo[allowed, self.roots] = budget.spent - before, model
        else:
            spent, model = hit
            budget.spend(spent)
        if model is None:
            return None
        # a snapshot: the walk goes on to extend and pop ``paths``
        found = (self.pairs, tuple(self.paths))
        fam = memo.get(found)
        if fam is None:
            fam = PathFamily(found[1], "linkage", pairs=self.pairs)
            fam = memo[found] = require_paths(self.g, fam)
        return model, fam


def _triple_witness(g: Graph, eps: Fraction, roots, pairs, budget: Budget, memo: dict):
    """One triple decided alone by a ``_Weave`` with ``memo`` as its memo."""
    endpoints = mask_of(v for pair in pairs for v in pair)
    return _Weave(g, eps, budget, memo).witness(roots, mask_of(roots), pairs, endpoints)


def _all_triples(n: int, a: int, b: int):
    """Every admissible (roots, sources, targets) choice, with the root
    and endpoint masks, each built once per list."""
    for roots in combinations(range(n), a):
        root_mask = mask_of(roots)
        for srcs in combinations(range(n), b):
            src_mask = mask_of(srcs)
            for tgts in permutations(range(n), b):
                # a source may equal only the target at its own index
                if b < 2 or all(
                    srcs[i] != tgts[j]
                    for i in range(b)
                    for j in range(b)
                    if i != j
                ):
                    yield roots, root_mask, srcs, tgts, src_mask | mask_of(tgts)


def check_wovenness(g: Graph, eps: Fraction, a: int, b: int) -> WovenReport:
    """Test the woven property triple by triple: enumerate every admissible
    (roots, sources, targets) choice on hosts up to the order cap and
    decide each one exactly, stopping at the first without a witness.

    eps must lie in (0, 1): at eps >= 1 every pattern is dense enough; a in
    [1, g.n] and b in [0, g.n]: no root set or endpoint list has another size."""
    eps = check_rational("eps", eps, 1)
    check_count("the root count a", a, 1, g.n)
    check_count("the pair count b", b, 0, g.n)
    if g.n > WOVEN_CAP:
        raise TooLargeError(f"exhaustive wovenness is capped at {WOVEN_CAP} vertices")
    budget = Budget(SEARCH_NODES, TooLargeError, "wovenness search budget exhausted")
    weave = _Weave(g, eps, budget, {})
    records: list[WovenTriple] = []
    counterexample: WovenTriple | None = None
    for roots, root_mask, srcs, tgts, endpoints in _all_triples(g.n, a, b):
        witness = weave.witness(roots, root_mask, tuple(zip(srcs, tgts)), endpoints)
        if witness is None:
            counterexample = WovenTriple(roots, srcs, tgts, False)
            records.append(counterexample)
            break
        model, fam = witness
        records.append(WovenTriple(roots, srcs, tgts, True, model, fam))
    return WovenReport(
        verdict="proven" if counterexample is None else "refuted-with-counterexample",
        eps=eps,
        a=a,
        b=b,
        checked=len(records),
        records=tuple(records),
        counterexample=counterexample,
    )


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
    The dense minor is ``dense_model`` when given, which must be a
    MinorModel living in ``g`` (HypothesisViolatedError) and be dense enough
    (DensityNotMetError).  Otherwise it is the singletons of the greedy
    32a-vertex subgraph, and HypothesisViolatedError is raised when that
    subgraph is not dense enough.  The construction peels low-quality
    branch sets from the dense minor, re-attaches the remainder to fresh
    root neighbors plus the endpoints, routes each pair through a shared
    extra branch set, and assembles the rooted model from the first a
    attached fragments.  Returns the model and the linkage, fully audited
    and disjoint.  Past the input checks, counting (noted at each step)
    guarantees every step, so a failing one raises InternalInfeasibleError."""
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
    roots, ends = mask_of(r_tuple), mask_of(s_tuple + t_tuple)
    if roots & ends:
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
        if not isinstance(dense_model, MinorModel) or dense_model.host != g:
            raise HypothesisViolatedError(
                "the dense model must be a minor model in the given host", evidence=dense_model
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
    # a miss count is an integer: at most eps * a / 2 exactly when at most
    # that bound's floor
    cap = eps * a // 2
    removed = roots | mask_of(s for s, t in zip(s_tuple, t_tuple) if s == t)
    # at least 20a + 1 branch sets are kept.  The pattern has 32a vertices
    # and misses M <= (eps/256) C(32a, 2) = eps a (32a - 1) / 16 pairs; a
    # dropped vertex misses cap + 1 > eps a / 2 others, so the D dropped
    # satisfy D (cap + 1) <= 2M, D < (32a - 1) / 4 < 8a; the a roots and
    # at most 3a collapsed pairs hit at most 4a more disjoint branch sets
    kept = [
        i
        for i in range(pat.n)
        if pat.n - 1 - pat.degree(i) <= cap
        and not mask_of(j_model.fragments[i]) & removed
    ]

    # one fresh neighbor per root, outside everything already spoken for:
    # kappa >= 8a gives each root 8a neighbours, and at most 8a - 2 are
    # taken (a - 1 other roots, 6a endpoints, a - 1 earlier picks)
    taken = roots | ends
    r_prime: list[int] = []
    for r in r_tuple:
        free = g.neighbor_bits(r) & ~taken
        check_internal(free != 0, f"root {r} has no free neighbor left")
        r_prime.append((free & -free).bit_length() - 1)
        taken |= free & -free

    # the kept fragments' pattern is j_model's induced on kept
    n_av = complement_max_degree(_induced(pat._bits, mask_of(kept)))
    attach = r_prime + [s for s, t in zip(s_tuple, t_tuple) if s != t]
    attach += [t for s, t in zip(s_tuple, t_tuple) if s != t]
    t_att = len(attach)
    # with c collapsed pairs, t_att = 7a - 2c and n_av <= cap < a/2, so the
    # 20a + 1 kept sets exceed n_av + 2 t_att, the count the loop asks of
    # its input.  Removing the a + c roots and collapsed pairs leaves the
    # rest of g (7a - c)-connected, so no separation of order below t_att
    # keeps a set away from the attachment, and the loop needs no search
    check_internal(len(kept) >= n_av + 2 * t_att, "too few branch sets for the attachment order")
    # the loop runs in host ids, on g with the removed vertices isolated;
    # the kept fragments avoid them
    g1 = _live_graph(g._bits, (1 << g.n) - 1 & ~removed)
    attached = _attached_model(g1, frozenset(attach), [j_model.fragments[i] for i in kept], n_av)
    # each of the first t_att fragments holds exactly one attachment
    # vertex, the one ``where`` maps to its index
    frags = [mask_of(f) for f in attached.fragments]
    att = mask_of(attach)
    where = {(frags[i] & att).bit_length() - 1: i for i in range(t_att)}

    # each pair rides its two attachment fragments plus the least shared
    # neighbor fragment no earlier pair took.  Of the len(kept) - 2 t_att >=
    # 6a + 1 spare fragments, fs and ft each miss at most n_av < a/2, so
    # the two share more than 5a spares, and earlier pairs took at most
    # 3a - 1 of them
    f_pat = attached.pattern
    spare = (1 << len(frags)) - (1 << t_att)
    paths_out: list[tuple[int, ...]] = []
    for s, t in zip(s_tuple, t_tuple):
        if s == t:
            paths_out.append((s,))
            continue
        fs, ft = where[s], where[t]
        pick = f_pat.neighbor_bits(fs) & f_pat.neighbor_bits(ft) & spare
        check_internal(pick != 0, "no shared branch set left to route a pair")
        pick &= -pick
        spare ^= pick
        route = frags[fs] | frags[pick.bit_length() - 1] | frags[ft]
        found = g.shortest_path(1 << s, 1 << t, route)
        check_internal(found is not None, "routing inside three joined branch sets failed")
        paths_out.append(found)

    final_frags = [
        mask_vertices(frags[where[v]] | 1 << r) for v, r in zip(r_prime, r_tuple)
    ]
    model = MinorModel(g, final_frags)
    check_internal(is_rooted_at(model, r_tuple), "assembled model lost its rooting")
    # the a attached fragments miss at most a n_av / 2 <= eps a^2 / 4 <=
    # eps C(a, 2) pairs, as a >= 2, and the roots only add edges
    check_internal(
        is_eps_t_dense(model.pattern, eps, a), "assembled pattern misses the density mark"
    )
    fam = PathFamily(paths_out, "linkage", pairs=tuple(zip(s_tuple, t_tuple)))
    require_paths(g, fam)
    check_internal(not model.used_vertices() & fam.vertices(), "model and linkage overlap")
    return model, fam
