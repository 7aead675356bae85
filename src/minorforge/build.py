"""Randomized constructions of (eps,t)-dense minors: the hitting-set sampler,
the branch-set growth rounds, the dense-graph variant, and the bipartite
random-contraction pipeline."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AttemptsExhaustedError,
    DisconnectedHostError,
    HypothesisViolatedError,
    InvalidBipartitionError,
    PathTooLongError,
    check_count,
    check_internal,
    check_rational,
    check_vertex_sets,
)
from .extract import dense_connected_minor
from .graph import (
    Graph,
    average_degree,
    complement_max_degree,
    induced_subgraph,
    is_eps_t_dense,
    mask_of,
    mask_vertices,
)
from .model import MinorModel, compose_models
from .params import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MAX_PATH_LEN,
    DENSE_EPS_BOUND,
    below_log_inv,
    degree_target,
    desk_sample_size,
    power_hypothesis,
    sqrt_log_inv,
    undominated_bound,
)
from .rng import Rng


@dataclass(frozen=True)
class HittingSetResult:
    s: tuple[int, ...]
    covered_failures: int
    undominated: int
    attempts: int


def hitting_set_check(
    g: Graph, s, a_list, eps: Fraction, undominated_cap: int
) -> tuple[int, int, bool]:
    """The acceptance test for a sampled set, shared with the test suite:
    counts indices whose set contains s, and vertices outside s with no
    neighbor in s; passes iff the first is at most eps * len(a_list) and
    the second is at most the cap."""
    eps = check_rational("eps", eps, 1)
    check_count("the undominated cap", undominated_cap, 0)
    s_set = g.vertex_set(s)
    covered = sum(1 for a in check_vertex_sets(a_list) if s_set <= a)
    s_mask = mask_of(s_set)
    full = (1 << g.n) - 1
    undominated = (full & ~s_mask & ~g.neighborhood(s_mask)).bit_count()
    ok = covered <= eps * len(a_list) and undominated <= undominated_cap
    return covered, undominated, ok


def sample_hitting_set(
    g: Graph,
    a_list,
    r: int,
    eps: Fraction,
    n: int,
    rng: Rng,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> HittingSetResult:
    """Up to r vertices drawn uniformly with repetition, retried until the
    two-part acceptance test passes: few given sets contain the draw, and
    few vertices are left without a neighbor in it."""
    eps = check_rational("eps", eps, 1)
    check_count("the sample size", r, 1)
    check_count("max_attempts", max_attempts, 1)
    check_count("the scale parameter", n, g.n, 6 * g.n)
    a_sets = []
    cap = undominated_bound(eps, r, n)
    for i, a in enumerate(a_list):
        a_set = g.vertex_set(a)
        if len(a_set) > cap:
            raise HypothesisViolatedError(
                f"set {i} exceeds the eps^(1/r)*n/12 size bound"
            )
        a_sets.append(a_set)
    if not g.n:
        raise HypothesisViolatedError("the host must be nonempty")
    if g.n >= 2:
        base = Fraction(complement_max_degree(g), g.n - 1)
        hypothesis_ok = power_hypothesis(eps, r, base)
    else:
        hypothesis_ok = True
    if not hypothesis_ok:
        warnings.warn(
            "degree hypothesis fails for this host; sampling may exhaust "
            "its attempts",
            stacklevel=2,
        )
    for attempt in range(1, max_attempts + 1):
        draw = rng.sample_with_replacement(range(g.n), r)
        s_set = frozenset(draw)
        covered, undominated, ok = hitting_set_check(g, s_set, a_sets, eps, cap)
        if ok:
            return HittingSetResult(
                tuple(sorted(s_set)), covered, undominated, attempt
            )
    raise AttemptsExhaustedError(
        f"no sample passed the check in {max_attempts} attempts",
        max_attempts,
        hypothesis_ok,
    )


def connect_within(g: Graph, s) -> tuple[int, ...]:
    """Superset of s inducing a connected subgraph, built by stitching the
    pieces of g[s] together along shortest paths of at most
    ``DEFAULT_MAX_PATH_LEN`` edges each."""
    s_set = g.vertex_set(s)
    if not s_set:
        return ()
    if not g.is_connected():
        raise DisconnectedHostError("stitching needs a connected host")
    full = (1 << g.n) - 1
    b = mask_of(s_set)
    while True:
        core = g.reach(b & -b, b)
        if core == b:
            break
        path = g.shortest_path(core, b & ~core, full)
        check_internal(path is not None, "a connected host links every piece")
        if len(path) - 1 > DEFAULT_MAX_PATH_LEN:
            raise PathTooLongError(
                f"stitching path needs {len(path) - 1} edges"
            )
        b |= mask_of(path)
    check_internal(
        b.bit_count() <= DEFAULT_MAX_PATH_LEN * len(s_set), "stitched set outgrew its bound"
    )
    return tuple(mask_vertices(b))


def _sample_round(
    g: Graph, pool: int, placed: list[int], r: int, eps: Fraction, n: int, rng: Rng,
    max_attempts: int,
) -> tuple[Graph, tuple[int, ...], HittingSetResult]:
    """One placement round: a hitting set sampled in the graph that the
    vertices of ``pool`` outside every ``placed`` mask induce, against one
    set per placed mask, the indices with no neighbour in it.  Returns the
    induced graph, its relabel map and the sample."""
    for b in placed:
        pool &= ~b
    f_graph, old = induced_subgraph(g, mask_vertices(pool))
    a_list = []
    for b in placed:
        reach = g.neighborhood(b)
        a_list.append(frozenset(i for i, v in enumerate(old) if not reach >> v & 1))
    return f_graph, old, sample_hitting_set(f_graph, a_list, r, eps, n, rng, max_attempts)


def _split_fast(h: Graph, t: int, eps: Fraction):
    """Cheap deterministic candidate: t-1 singletons plus the rest as one
    lump; works whenever the extracted pattern is essentially complete.
    Each plain move of the descent keeps 2e >= (d-1)n, which at order
    n <= d forces n = d and K_d; so only a pattern left by the descent's
    fallbacks (degree-safe contraction, exhaustive finish) can fail here."""
    if h.n < t:
        return None
    rest = ((1 << h.n) - 1) >> (t - 1) << (t - 1)
    if h.reach(rest & -rest, rest) != rest:
        return None
    frags = [(i,) for i in range(t - 1)] + [mask_vertices(rest)]
    model = MinorModel(h, frags)
    if is_eps_t_dense(model.pattern, eps, t):
        return model
    return None


def build_dense_minor(
    g: Graph, eps: Fraction, t: int, c_scale: Fraction, rng: Rng,
    *, max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> MinorModel:
    """(eps,t)-dense minor from average degree: extract a low-order dense
    connected minor, then place t branch sets by hitting-set rounds.  The
    rounds run only after the descent's fallbacks: without them it ends at
    K_d, which ``_split_fast`` always splits."""
    check_count("max_attempts", max_attempts, 1)
    eps = check_rational("eps", eps, DENSE_EPS_BOUND)
    check_count("t", t, 2)
    c_scale = check_rational("the scale constant", c_scale)
    # avg < c t sqrt(ln(1/eps)), squared: both sides are nonnegative
    if below_log_inv(average_degree(g) ** 2 / (c_scale * t) ** 2, eps):
        raise HypothesisViolatedError(
            "average degree below the scaled threshold"
        )
    d = max(degree_target(eps, t, c_scale), t)  # a size, not a threshold
    h_model = dense_connected_minor(g, d)
    h = h_model.pattern
    fast = _split_fast(h, t, eps)
    if fast is not None:
        return compose_models(h_model, fast)
    r = desk_sample_size(eps, t, d)
    # round i's set is anticomplete to at most eps * i placed sets, so the
    # pattern misses at most eps C(t, 2) pairs: the final check cannot fail
    placed: list[int] = []
    for _ in range(t):
        f_graph, old, res = _sample_round(
            h, (1 << h.n) - 1, placed, r, eps, d, rng, max_attempts
        )
        b_new = mask_of(old[i] for i in connect_within(f_graph, res.s))
        reach = h.neighborhood(b_new)
        count = sum(1 for b in placed if not reach & b)
        check_internal(count <= eps * len(placed), "stitched set lost the sampled adjacency")
        placed.append(b_new)
    inner = MinorModel(h, [mask_vertices(b) for b in placed])
    final = compose_models(h_model, inner)
    check_internal(is_eps_t_dense(final.pattern, eps, t), "final pattern misses the density target")
    return final


def build_dense_minor_in_dense_graph(
    g: Graph, eps: Fraction, t: int, rng: Rng, *, max_attempts: int = DEFAULT_MAX_ATTEMPTS
) -> MinorModel:
    """(eps,t)-dense minor inside an already-dense host: grow t cores in a
    low-complement-degree third of the graph, then stitch each core
    connected through fresh common neighbors outside it."""
    check_count("max_attempts", max_attempts, 1)
    eps = check_rational("eps", eps, 1)
    check_count("t", t, 2)
    n = g.n
    if n < 12 * t:
        raise HypothesisViolatedError("need at least 12*t vertices")
    r = n // (12 * t)
    total = math.comb(n, 2)
    q = Fraction(total - g.m, total)
    if not power_hypothesis(eps, r, 12 * q):
        raise HypothesisViolatedError(
            "the complement-density hypothesis fails at this size"
        )
    by_missing = sorted(range(n), key=lambda v: (n - 1 - g.degree(v), v))
    s_pool = by_missing[: n // 3]
    limit = 2 * q * n
    if any(n - 1 - g.degree(v) > limit for v in s_pool):
        raise HypothesisViolatedError(
            "not enough vertices with few non-neighbors"
        )
    pool = mask_of(s_pool)
    cores: list[int] = []
    # hitting_set_check lets round i's core be anticomplete to at most
    # eps * i placed cores, and stitching only adds vertices, so the
    # pattern misses at most eps C(t, 2) pairs
    for _ in range(t):
        _, old, res = _sample_round(g, pool, cores, r, eps, n, rng, max_attempts)
        cores.append(mask_of(old[i] for i in res.s))
    model = MinorModel(g, _stitch_outside(g, cores, pool))
    check_internal(is_eps_t_dense(model.pattern, eps, t), "final pattern misses the density target")
    return model


def _stitch_outside(g: Graph, cores: list[int], used: int) -> list[list[int]]:
    """Join each core mask's pieces through unused common neighbors outside
    the pool mask ``used``, keeping all fragments pairwise disjoint."""
    out: list[list[int]] = []
    for b in cores:
        while True:
            comps = g.components_in(b)
            if len(comps) <= 1:
                break
            u, v = ((c & -c).bit_length() - 1 for c in comps[:2])
            shared = g.neighbor_bits(u) & g.neighbor_bits(v) & ~used
            if not shared:
                raise HypothesisViolatedError(
                    "ran out of fresh common neighbors while stitching"
                )
            w = shared & -shared
            used |= w
            b |= w
        out.append(mask_vertices(b))
    return out


def _check_bipartition(g: Graph, side_a, side_b) -> tuple[frozenset, frozenset]:
    a_set, b_set = g.vertex_set(side_a), g.vertex_set(side_b)
    if a_set & b_set or len(a_set) + len(b_set) != g.n:
        raise InvalidBipartitionError("sides must partition the vertices")
    for u, w in g.edges():
        if (u in a_set) == (w in a_set):
            raise InvalidBipartitionError(
                f"edge ({u}, {w}) does not cross the bipartition"
            )
    return a_set, b_set


def bipartite_random_contraction(
    g: Graph, side_a, side_b, u0: int, s, rng: Rng
) -> tuple[Graph, MinorModel]:
    """Every vertex on side_a (except u0) with a neighbor in s picks one
    uniformly and is contracted into it; returns the resulting pattern on s
    and its model."""
    a_set, _ = _check_bipartition(g, side_a, side_b)
    g.check_vertex(u0)
    if u0 not in a_set:
        raise HypothesisViolatedError("the anchor must lie on side_a")
    s_mask = mask_of(g.vertex_set(s))
    if not s_mask:
        raise HypothesisViolatedError("the root set must be nonempty")
    if s_mask & ~g.neighbor_bits(u0):
        raise HypothesisViolatedError("roots must be neighbors of the anchor")
    # one mask per root, ascending, taking in each vertex contracted into it
    frags = {x: 1 << x for x in mask_vertices(s_mask)}
    for u in sorted(a_set - {u0}):
        cands = mask_vertices(g.neighbor_bits(u) & s_mask)
        if cands:
            frags[cands[rng.below(len(cands))]] |= 1 << u
    model = MinorModel(g, [mask_vertices(f) for f in frags.values()])
    return model.pattern, model


def _greedy_cross_pairs(g: Graph, t: int, eps: Fraction):
    """Cheap deterministic candidate: t disjoint edges as fragments."""
    taken: set[int] = set()
    frags = []
    for u, w in g.edges():
        if u in taken or w in taken:
            continue
        frags.append(frozenset((u, w)))
        taken.update((u, w))
        if len(frags) == t:
            break
    if len(frags) < t:
        return None
    model = MinorModel(g, frags)
    if is_eps_t_dense(model.pattern, eps, t):
        return model
    return None


def build_dense_minor_bipartite(
    g: Graph, side_a, side_b, eps: Fraction, t: int, c_scale: Fraction, rng: Rng,
    *, max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> MinorModel:
    """(eps,t)-dense minor in a bipartite host with enough edges: contract a
    random choice function onto part of a low-degree anchor's neighborhood,
    then build inside the contracted pattern."""
    check_count("max_attempts", max_attempts, 1)
    eps = check_rational("eps", eps, DENSE_EPS_BOUND)
    check_count("t", t, 2)
    c_scale = check_rational("the scale constant", c_scale)
    a_set, b_set = _check_bipartition(g, side_a, side_b)
    if len(a_set) < len(b_set):
        a_set, b_set = b_set, a_set
    if not b_set:
        raise HypothesisViolatedError("both sides must be nonempty")
    # m < c t sqrt(ln(1/eps) |A| |B|) + t n; the root is positive, so this
    # holds when m - t n is negative and otherwise compares the squares
    surplus = g.m - t * g.n
    if surplus < 0 or below_log_inv(
        Fraction(surplus ** 2, len(a_set) * len(b_set)) / (c_scale * t) ** 2, eps
    ):
        raise HypothesisViolatedError("edge count below the scaled threshold")
    fast = _greedy_cross_pairs(g, t, eps)
    if fast is not None:
        return fast
    # sizes, not thresholds: double precision is enough
    d_eff = t * sqrt_log_inv(eps)
    p = math.sqrt(len(a_set) / len(b_set))
    n_pick = max(math.ceil(float(c_scale) / 2 * d_eff / p + t), 12 * t)
    candidates = [
        v
        for v in sorted(a_set, key=lambda v: (g.degree(v), v))
        if g.degree(v) >= n_pick
    ][:8]
    if not candidates:
        raise HypothesisViolatedError(
            f"no vertex on the larger side has {n_pick} neighbors", evidence=n_pick
        )
    attempts = 0
    for ci, u0 in enumerate(candidates):
        roots = mask_vertices(g.neighbor_bits(u0))[:n_pick]
        for trial in range(8):
            attempts += 1
            child = rng.spawn(ci, trial)
            pattern, cmodel = bipartite_random_contraction(
                g, a_set, b_set, u0, roots, child
            )
            try:
                inner = build_dense_minor_in_dense_graph(
                    pattern, eps, t, child.spawn(1),
                    max_attempts=max_attempts,
                )
            except (HypothesisViolatedError, AttemptsExhaustedError):
                continue
            # the composed pattern is the inner one, which its builder certified
            final = compose_models(cmodel, inner)
            check_internal(is_eps_t_dense(final.pattern, eps, t), "composed pattern lost density")
            return final
    raise AttemptsExhaustedError(
        f"no certified pattern in {attempts} attempts", attempts, True
    )
