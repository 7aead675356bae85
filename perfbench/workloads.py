"""The four benchmark workloads: seeded inputs, the timed op, a canonical
text form of each output (for the golden digest) and its re-check.

An op is one call into minorforge, or one fixed bundle of calls.
``make(seed, count)`` builds the inputs of the first ``count`` ops; they
depend only on the seed and the op index, and everything an op needs is
built before timing starts.  Ops call the library through the package namespace
at call time, so a traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import minorforge as mf
from minorforge.params import DEFAULT_MAX_ATTEMPTS

import oracles as orc

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    pass_size: int   # distinct inputs made per run; ops cycle through them
    window: int      # leading ops behind the golden digest and the counters
    make: Callable[[int, int], list]
    op: Callable[[Any], Any]
    canon: Callable[[Any, Any], str]
    recheck: Callable[[Any, Any], list[str]]


def encode(x) -> Any:
    """A comparable plain form of an input, to check that set-up repeats."""
    if isinstance(x, mf.Graph):
        return ("graph", x.n, tuple(x.neighbor_bits(v) for v in range(x.n)))
    if isinstance(x, (list, tuple)):
        return tuple(encode(y) for y in x)
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted(x)))
    return x


def _sets(sets) -> str:
    return "|".join(",".join(map(str, sorted(s))) for s in sets)


def _each(make_one):
    """``make(seed, count)`` from a maker of the input of op ``i``."""
    return lambda seed, count: [make_one(seed, i) for i in range(count)]


def _library_check(problems: list[str], fn, *args) -> Any:
    """Run a library-side validator; a typed error becomes a problem."""
    try:
        return fn(*args)
    except mf.MinorforgeError as exc:
        problems.append(f"{fn.__name__} raised {type(exc).__name__}: {exc}")
        return None


# -- pipeline_gnp -------------------------------------------------------------

PIPE_EPS, PIPE_T, PIPE_SCALE = Fraction(1, 10), 5, Fraction(8)


def _pipeline_make(seed: int, i: int):
    g = mf.random_graph(200, HALF, mf.Rng(mf.derive_seed(seed, 1, i, 0)))
    return g, mf.derive_seed(seed, 1, i, 1)


def _pipeline_op(inp):
    g, build_seed = inp
    return mf.build_dense_minor(g, PIPE_EPS, PIPE_T, PIPE_SCALE, mf.Rng(build_seed))


def _pipeline_canon(inp, model) -> str:
    return _sets(model.fragments)


def _pipeline_recheck(inp, model) -> list[str]:
    g = inp[0]
    adj = orc.adjacency(g)
    out = orc.model_problems(adj, model.fragments)
    if len(model.fragments) != PIPE_T:
        out.append(f"{len(model.fragments)} fragments instead of {PIPE_T}")
    elif not out and not orc.dense_enough(orc.pattern_edges(adj, model.fragments), PIPE_T, PIPE_EPS):
        out.append("pattern misses the density target")
    report = _library_check(out, mf.require_valid, model)
    if report is not None and not mf.is_eps_t_dense(report.pattern, PIPE_EPS, PIPE_T):
        out.append("is_eps_t_dense rejects the pattern")
    if model.host is not g:
        out.append("model lives in another host")
    return out


# -- woven_dense --------------------------------------------------------------

WOVEN_N, WOVEN_A = 68, 2


def _woven_make(seed: int, i: int):
    rng = mf.Rng(mf.derive_seed(seed, 2, i))
    edges = mf.complete_graph(WOVEN_N).edges()
    drop = set()
    while len(drop) < 1 + i % 2:
        drop.add(rng.below(len(edges)))
    g = mf.graph_from_edge_list(WOVEN_N, [e for j, e in enumerate(edges) if j not in drop])
    order = list(range(WOVEN_N))
    rng.shuffle(order)
    b = 3 * WOVEN_A
    request = (tuple(order[:WOVEN_A]), tuple(order[WOVEN_A:WOVEN_A + b]),
               tuple(order[WOVEN_A + b:WOVEN_A + 2 * b]))
    return g, request


def _woven_op(inp):
    g, request = inp
    return mf.realize_woven_from_dense_minor(g, HALF, WOVEN_A, request)


def _woven_canon(inp, out) -> str:
    model, fam = out
    return _sets(model.fragments) + "/" + _sets(fam.paths)


def _woven_recheck(inp, out) -> list[str]:
    g, (roots, srcs, tgts) = inp
    model, fam = out
    adj = orc.adjacency(g)
    pairs = tuple(zip(srcs, tgts))
    problems = orc.model_problems(adj, model.fragments)
    problems += orc.linkage_problems(adj, pairs, fam.paths)
    report = _library_check(problems, mf.require_valid, model)
    if report is not None:
        if not mf.is_rooted_at(model, roots):
            problems.append("model is not rooted at the requested roots")
        if not mf.is_eps_t_dense(report.pattern, HALF, WOVEN_A):
            problems.append("pattern is not dense")
    problems += mf.audit_path_family(g, fam)
    if fam.pairs != pairs:
        problems.append("linkage answers other pairs")
    if model.used_vertices() & fam.vertices():
        problems.append("model and linkage share a vertex")
    return problems


# -- connectivity_mix ---------------------------------------------------------

KCONN_K, MENGER_K = 3, 10


def _planted(rng, blocks: int, size: int, p: Fraction, overlap: int):
    """Dense random blocks in a chain, consecutive blocks sharing ``overlap``
    vertices, so each shared set is a separation of that order."""
    edges = set()
    start = 0
    for _ in range(blocks):
        for u in range(start, start + size):
            for v in range(u + 1, start + size):
                if rng.bernoulli(p):
                    edges.add((u, v))
        start += size - overlap
    n = start + overlap
    label = list(range(n))
    rng.shuffle(label)
    return mf.graph_from_edge_list(
        n, sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges))


MENGER_SHARE = 4  # consecutive ops that ask menger about one sparse host


def _conn_make(seed: int, count: int):
    out, g3 = [], None
    for i in range(count):
        rng = mf.Rng(mf.derive_seed(seed, 3, i))
        n1 = 60 + 5 * (i % 5)
        p1 = (Fraction(1, 5), Fraction(1, 4))[i // 5 % 2]
        g1 = mf.random_graph(n1, p1, rng.spawn(1))
        # four blocks beside the smaller connectivity hosts, three beside the
        # larger, so that bundles carry comparable work
        blocks = 4 if i % 5 < 2 or (i % 5 == 2 and i % 2) else 3
        host = _planted(rng.spawn(2), blocks, 20, Fraction(4, 5), 2)
        if i % MENGER_SHARE == 0:
            g3 = mf.random_graph(200, Fraction(1, 20),
                                 mf.Rng(mf.derive_seed(seed, 3, i // MENGER_SHARE, 3)))
        order = list(range(200))
        rng.spawn(4).shuffle(order)
        out.append((g1, host, (g3, tuple(order[:MENGER_K]),
                               tuple(order[MENGER_K:2 * MENGER_K]))))
    return out


def _conn_op(inp):
    g1, host, (g3, s, t) = inp
    return (mf.vertex_connectivity_with_cutset(g1),
            mf.k_connected_subgraph(host, KCONN_K),
            mf.menger(g3, s, t, MENGER_K))


def _conn_canon(inp, out) -> str:
    (kappa, cut), kset, got = out
    if isinstance(got, mf.Separation):
        tail = "sep:" + _sets((got.a, got.b))
    else:
        tail = "paths:" + _sets(got.paths)
    return f"{kappa}:{cut}/{kset}/{tail}"


def _conn_recheck(inp, out) -> list[str]:
    g1, host, (g3, s, t) = inp
    (kappa, cut), kset, got = out
    adj1 = orc.adjacency(g1)
    if cut is None:
        problems = [] if 2 * g1.m == g1.n * (g1.n - 1) and kappa == g1.n - 1 else [
            "no cutset for a graph that is not complete"]
    else:
        problems = orc.cut_problems(adj1, kappa, cut)
    problems += orc.k_connected_problems(orc.adjacency(host), kset, KCONN_K)
    adj3 = orc.adjacency(g3)
    if isinstance(got, mf.Separation):
        problems += got.violations(g3)
        problems += orc.separation_problems(adj3, got.a, got.b, s, t, MENGER_K)
    else:
        problems += mf.audit_path_family(g3, got)
        problems += orc.between_problems(adj3, got.paths, set(s), set(t), MENGER_K)
    return problems


# -- exact_small --------------------------------------------------------------


def _near_complete(rng, n: int):
    """K_n minus a random partial matching: complement degree at most one."""
    order = list(range(n))
    rng.shuffle(order)
    gone = {(min(a, b), max(a, b)) for a, b in zip(order[0::2], order[1::2]) if rng.below(2)}
    return mf.graph_from_edge_list(n, [e for e in mf.complete_graph(n).edges() if e not in gone])


def _hitting_input(rng):
    n = 30 + rng.below(11)
    r = 2 + rng.below(2)
    eps = (Fraction(1, 4), HALF)[rng.below(2)]
    g = _near_complete(rng.spawn(1), n)
    cap = mf.undominated_bound(eps, r, n)
    pool = list(range(n))
    rng.shuffle(pool)
    a_list, at = [], 0
    for _ in range(rng.below(7)):
        size = 1 + rng.below(cap)
        if at + size > n:
            break
        a_list.append(frozenset(pool[at:at + size]))
        at += size
    return g, tuple(a_list), r, eps, n, rng.spawn(2).seed


def _exact_make(seed: int, i: int):
    rng = mf.Rng(mf.derive_seed(seed, 4, i))
    g_chi = mf.random_graph(18 + i % 3, HALF, rng.spawn(1))
    # separability on 10 and linkage on 16-20 vertices: on 12 and 20-24 the
    # exhaustive refutations take 0.3-2.5 s and are rare enough that a run's
    # throughput would depend on how many of them its seed draws
    g_sep = mf.random_graph(10, HALF, rng.spawn(2))
    n_link = 16 + i % 5
    g_link = mf.random_graph(n_link, Fraction(1, 5), rng.spawn(3))
    order = list(range(n_link))
    rng.spawn(4).shuffle(order)
    pairs = tuple(zip(order[0:6:2], order[1:6:2]))
    g_wov = mf.random_graph(6, Fraction(5, 6), rng.spawn(6))
    return g_chi, g_sep, (g_link, pairs), _hitting_input(rng.spawn(5)), g_wov


def _exact_op(inp):
    g_chi, g_sep, (g_link, pairs), (g_hit, a_list, r, eps, n, hit_seed), g_wov = inp
    return (mf.chromatic_number_exact(g_chi),
            mf.is_chromatic_separable(g_sep, 1),
            mf.find_linkage(g_link, pairs),
            mf.sample_hitting_set(g_hit, a_list, r, eps, n, mf.Rng(hit_seed)),
            mf.check_wovenness(g_wov, HALF, 2, 1))


def _exact_canon(inp, out) -> str:
    chi, (sep_ok, sep_wit), link, hit, wov = out
    records = ";".join(
        f"{rec.roots}{rec.sources}{rec.targets}"
        + (_sets(rec.model.fragments) + "/" + _sets(rec.linkage.paths) if rec.ok else "x")
        for rec in wov.records)
    link_text = "none" if link is None else _sets(link.paths)
    return (f"{chi}/{sep_ok}:{sep_wit}/{link_text}/{hit.s}:{hit.attempts}:"
            f"{hit.covered_failures}:{hit.undominated}/{wov.verdict}:{wov.checked}:{records}")


def _exact_recheck(inp, out) -> list[str]:
    g_chi, g_sep, (g_link, pairs), (g_hit, a_list, r, eps, n, _), g_wov = inp
    chi, (sep_ok, sep_wit), link, hit, wov = out
    problems = orc.chromatic_problems(orc.adjacency(g_chi), chi)
    problems += orc.separable_problems(orc.adjacency(g_sep), 1, sep_ok, sep_wit)
    problems += orc.linkage_problems(orc.adjacency(g_link), pairs,
                                     None if link is None else link.paths)
    if link is not None:
        problems += mf.audit_path_family(g_link, link)
    cap = mf.undominated_bound(eps, r, n)
    covered, undominated, ok = mf.hitting_set_check(g_hit, hit.s, a_list, eps, cap)
    if not ok or (covered, undominated) != (hit.covered_failures, hit.undominated):
        problems.append("hitting set fails its acceptance check")
    if not 1 <= len(hit.s) <= r or not 1 <= hit.attempts <= DEFAULT_MAX_ATTEMPTS:
        problems.append("hitting set has the wrong size or attempt count")
    problems += orc.woven_report_problems(orc.adjacency(g_wov), HALF, 2, 1, wov)
    return problems


# Why each workload exists, and which layer it drives or leaves idle, is
# recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_gnp", 32, 4, _each(_pipeline_make), _pipeline_op,
                 _pipeline_canon, _pipeline_recheck),
        Workload("woven_dense", 12, 2, _each(_woven_make), _woven_op,
                 _woven_canon, _woven_recheck),
        Workload("connectivity_mix", 48, 4, _conn_make, _conn_op,
                 _conn_canon, _conn_recheck),
        Workload("exact_small", 384, 16, _each(_exact_make), _exact_op,
                 _exact_canon, _exact_recheck),
    )
}
