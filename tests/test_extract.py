from __future__ import annotations

from fractions import Fraction

import pytest

from minorforge import (
    average_degree,
    complete_graph,
    dense_connected_minor,
    graph_from_edge_list,
    induced_subgraph,
    k_connected_subgraph,
    mader_min_degree_minor,
    random_graph,
    require_valid,
    vertex_connectivity,
)
from minorforge import extract
from minorforge.errors import Budget, ExtractionFailedError, HypothesisViolatedError
from minorforge.graph import mask_of, mask_vertices
from minorforge.rng import Rng, derive_seed

import extract_reference
from conftest import petersen, run_optimized


def _two_cliques(k: int):
    """Disjoint K_k + K_k with one bridging edge."""
    edges = []
    for base in (0, k):
        edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
    edges.append((k - 1, k))
    return graph_from_edge_list(2 * k, sorted(edges))


def test_mader_on_complete_graph():
    model = mader_min_degree_minor(complete_graph(6), 6)
    pat = require_valid(model).pattern
    assert pat.n == 6 and pat.m == 15


def test_mader_postconditions_on_seeded_graphs():
    for i in range(30):
        rng = Rng(derive_seed(30, i))
        d = (6, 8, 10)[i % 3]
        while True:
            n = 20 + rng.below(41)
            p = Fraction(rng.below(5) + 4, 10)
            g = random_graph(n, p, rng.spawn(rng.below(1 << 30)))
            if average_degree(g) >= d - 1:
                break
        model = mader_min_degree_minor(g, d)
        pat = require_valid(model).pattern
        assert 2 <= pat.n <= d
        assert 2 * pat.min_degree() >= d


def test_mader_rejects_sparse_host():
    path = graph_from_edge_list(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(HypothesisViolatedError):
        mader_min_degree_minor(path, 6)
    with pytest.raises(HypothesisViolatedError):
        mader_min_degree_minor(complete_graph(5), 1)


def _full_scan_descent(work, d: int, hits: dict[str, int]) -> None:
    """Reference descent: the same moves as `_mader_descent`, but every
    contraction scans all pattern edges for the least (loss, a, b)."""
    while True:
        if not work.frags:
            raise ExtractionFailedError("descent consumed the whole graph")
        deg, v = min((m.bit_count(), r) for r, m in work.bits.items())
        if 2 * deg <= d - 1:
            hits["delete"] += 1
            work.delete(v)
            continue
        n_pat = len(work.frags)
        if n_pat <= d:
            return
        slack = 2 * work.e - (d - 1) * n_pat
        best = min(
            (
                (1 + (work.bits[a] & work.bits[b]).bit_count(), a, b)
                for a in work.frags
                for b in mask_vertices(work.bits[a])
                if a < b
            ),
            default=None,
        )
        if best is None:
            raise ExtractionFailedError("no edges left above target order")
        loss, a, b = best
        if 2 * loss <= slack + d - 1:
            work.contract(a, b)
            continue
        picked = extract._degree_safe_contraction(work, d)
        if picked is not None:
            hits["degree_safe"] += 1
            work.contract(*picked)
            continue
        if n_pat <= extract._EXHAUSTIVE_ORDER:
            hits["exhaustive"] += 1
            extract._exhaustive_finish(work, d)
            return
        raise ExtractionFailedError(
            f"descent stuck at {n_pat} pattern vertices"
        )


class _AuditedWork(extract._Work):
    """Workspace that checks its row bounds against a full scan after
    every step and every least-loss query, where the pigeonhole floor
    raises bounds; `lifts` counts those raises."""

    lifts = 0

    def least_loss_edge(self, delta):
        best = super().least_loss_edge(delta)
        self.audit()
        return best

    def _lift(self, x, bound):
        super()._lift(x, bound)
        self.lifts += 1

    def delete(self, rep):
        super().delete(rep)
        self.audit()

    def contract(self, a, b):
        super().contract(a, b)
        self.audit()

    def audit(self):
        """Each queued row sits in one bucket, at its bound, and every row
        with edges is queued (a row whose edges all went may stay queued
        until it reaches the front); no bucket below `low` holds a row."""
        for x, bx in self.bits.items():
            row = [
                (1 + (bx & self.bits[y]).bit_count(), y)
                for y in mask_vertices(bx)
                if y > x
            ]
            if not row:
                assert not self.exact >> x & 1
                continue
            least = min(row)
            assert 1 <= self.lb[x] <= least[0]
            if self.exact >> x & 1:
                assert (self.lb[x], self.arg[x]) == least
        queued = [x for x, bound in enumerate(self.lb) if bound]
        assert set(queued) <= self.bits.keys()
        assert all(self.bucket[self.lb[x]] >> x & 1 for x in queued)
        assert sum(map(int.bit_count, self.bucket)) == len(queued)
        assert not any(self.bucket[:self.low])


def _descend(work, d, descent):
    extract._restrict_to_best_component(work)
    try:
        descent(work, d)
        failure = None
    except ExtractionFailedError as err:
        failure = str(err)
    frags = sorted(map(frozenset, work.frags.values()), key=min)
    return work.steps, frags, failure


def _bridged_blocks(rng, d):
    """Two dense G(k, p) blocks joined by one or two edges: the descent
    runs out of potential-preserving contractions on them."""
    k = d + rng.below(3)
    p = Fraction(7 + rng.below(4), 10)
    edges = random_graph(k, p, rng.spawn(1)).edges()
    edges += [(u + k, v + k) for u, v in random_graph(k, p, rng.spawn(2)).edges()]
    for _ in range(1 + rng.below(2)):
        edges.append((rng.below(k), k + rng.below(k)))
    return graph_from_edge_list(2 * k, sorted(set(edges)))


def _descent_hosts(count):
    """Seeded (host, d) pairs, d in 6-12: dense G(n, p), sparse G(n, p)
    with average degree near d - 1, and bridged dense blocks."""
    for i in range(count):
        rng = Rng(derive_seed(33, i))
        d = 6 + rng.below(7)
        n = 12 + rng.below(40)
        if i % 3 == 0:
            g = random_graph(n, Fraction(3 + rng.below(7), 10), rng.spawn(0))
        elif i % 3 == 1:
            p = Fraction(d - 1 + rng.below(4), n - 1)
            g = random_graph(n, min(p, Fraction(1)), rng.spawn(0))
        else:
            g = _bridged_blocks(rng, 6 + rng.below(3))
        if average_degree(g) >= d - 1:
            yield g, d


def test_incremental_descent_matches_full_scan():
    hits = {"delete": 0, "degree_safe": 0, "exhaustive": 0}
    lifts = 0
    for g, d in _descent_hosts(240):
        reference = _descend(
            extract._Work(g), d,
            lambda work, dd: _full_scan_descent(work, dd, hits),
        )
        work = _AuditedWork(g)
        assert _descend(work, d, extract._mader_descent) == reference
        lifts += work.lifts
    assert hits["delete"] >= 1
    assert hits["degree_safe"] >= 1
    assert hits["exhaustive"] >= 1
    assert lifts >= 5000  # the floor acts, and the audits above cover it


def test_pigeonhole_floor_saves_rescans(monkeypatch):
    """Work counter: the descent's rescans on the descent hosts, pinned
    exactly, since the queue must hand out the same rows in the same
    order.  Without the floor in `least_loss_edge` there are about half as
    many again."""
    rescans = 0
    rescan = extract._Work._rescan

    def counted(self, x):
        nonlocal rescans
        rescans += 1
        rescan(self, x)

    monkeypatch.setattr(extract._Work, "_rescan", counted)
    for g, d in _descent_hosts(240):
        _descend(extract._Work(g), d, extract._mader_descent)
    assert rescans == 14099


def _ref_degree_safe_contraction(work, d: int):
    """The former `extract._degree_safe_contraction`, which rescans every
    degree for every edge; kept as the reference."""
    degs = {r: m.bit_count() for r, m in work.bits.items()}
    best = None
    for a in sorted(work.frags):
        na = work.bits[a]
        for b in mask_vertices(extract._above(na, a)):
            nb = work.bits[b]
            common = na & nb
            merged = ((na | nb) & ~(1 << a) & ~(1 << b)).bit_count()
            low = merged
            for v, dv in degs.items():
                if v == a or v == b:
                    continue
                low = min(low, dv - 1 if common >> v & 1 else dv)
            if 2 * low < d:
                continue
            loss = 1 + common.bit_count()
            if best is None or (loss, a, b) < best:
                best = (loss, a, b)
    return None if best is None else (best[1], best[2])


def test_degree_safe_contraction_matches_the_full_degree_scan(monkeypatch):
    """On the descent hosts, and on every d below and above the one the
    descent runs with, so that refusals and picks both occur."""
    picked = refused = 0
    library = extract._degree_safe_contraction

    def checked(work, d):
        nonlocal picked, refused
        for dd in (d - 2, d, d + 2, 2 * d):
            want = _ref_degree_safe_contraction(work, dd)
            assert library(work, dd) == want
            picked += want is not None
            refused += want is None
        return library(work, d)

    monkeypatch.setattr(extract, "_degree_safe_contraction", checked)
    for g, d in _descent_hosts(240):
        _descend(extract._Work(g), d, extract._mader_descent)
    assert picked >= 20 and refused >= 20


def _embedded_patterns(count: int):
    """Seeded G(n, p) patterns, n 2-9, with a degree target d 2-6, each
    also given as rows keyed by n distinct host ids drawn from 0..3n-1,
    so that the ids are not contiguous; ``reps[i]`` hosts vertex i."""
    for i in range(count):
        rng = Rng(derive_seed(28, i))
        n, d = 2 + rng.below(8), 2 + rng.below(5)
        pat = random_graph(n, Fraction(1 + rng.below(9), 10), rng.spawn(0))
        pool = list(range(3 * n))
        rng.shuffle(pool)
        reps = sorted(pool[:n])
        rows = {reps[v]: mask_of(reps[w] for w in pat.neighbors(v)) for v in range(n)}
        yield pat, rows, reps, d


@pytest.mark.parametrize("nodes", [None, 40])
def test_stuck_descent_search_matches_the_frozenset_reference(monkeypatch, nodes):
    """The mask-native search on the descent's rows returns the moves of
    the frozenset search on the renumbered pattern, fragment for fragment,
    and spends the same budget; with a budget of 40 nodes both run out at
    the same patterns."""
    budgets = []

    class Recorded(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    for module in (extract, extract_reference):
        monkeypatch.setattr(module, "Budget", Recorded)
        if nodes is not None:
            monkeypatch.setattr(module, "SEARCH_NODES", nodes)

    def run(search, *args):
        try:
            return search(*args), budgets[-1].spent
        except ExtractionFailedError as exc:
            return "exhausted", exc.evidence

    outcomes = set()
    for pat, rows, reps, d in _embedded_patterns(800):
        want, want_spent = run(extract_reference._search_small_minor, pat, d)
        if isinstance(want, list):
            want = [(kind, *(mask_of(reps[v] for v in f) for f in frags))
                    for kind, *frags in want]
        got, got_spent = run(extract._search_small_minor, rows, d)
        assert (got, got_spent) == (want, want_spent), (pat.edges(), reps, d)
        outcomes.add("moves" if isinstance(got, list) and got else str(got))
    assert outcomes >= ({"moves", "None"} if nodes is None else {"moves", "exhausted"})


def test_dense_connected_contract():
    # two cliques joined by one edge: the descent keeps one clique, so the
    # restriction deletes nothing (the deleting case is tested above)
    g = _two_cliques(6)
    model = dense_connected_minor(g, 6)
    pat = require_valid(model).pattern
    assert 2 <= pat.n <= 6
    assert 3 * pat.min_degree() >= 6
    assert 6 * vertex_connectivity(pat) >= 6


def test_dense_connected_validates_the_descent_model_once(monkeypatch):
    """The restriction keeps the descent's certified model when it deletes
    nothing, so those fragments are validated once.  When it deletes, the
    restricted model is validated as well: two K_10 sharing two vertices
    have connectivity 2 < 18/6, and a descent that stops at once leaves the
    K_8 of one side."""
    import minorforge.model as model_mod

    seen, validate = [], model_mod.validate_model

    def counted(m):
        seen.append(m.fragments)
        return validate(m)

    g = random_graph(40, Fraction(3, 5), Rng(derive_seed(33, 0)))
    descent = mader_min_degree_minor(g, 8).fragments
    monkeypatch.setattr(model_mod, "validate_model", counted)
    assert dense_connected_minor(g, 8).fragments == descent  # nothing deleted
    assert seen == [descent]

    sides = (range(10), range(8, 18))
    split = graph_from_edge_list(
        18, sorted({(a, b) for side in sides for a in side for b in side if a < b})
    )

    def stopped(host, d):
        model = extract._Work(host).model()
        model.pattern  # certified, as the descent's model is
        return model

    monkeypatch.setattr(extract, "_certified_descent", stopped)
    seen.clear()
    model = dense_connected_minor(split, 18)
    assert model.fragments == tuple(frozenset({v}) for v in range(8))
    assert seen == [tuple(frozenset({v}) for v in range(18)), model.fragments]


_CERTIFICATE_SCRIPT = """
from minorforge import MinorModel, complete_graph, graph_from_edge_list, mader_min_degree_minor
from minorforge import extract
from minorforge.errors import ExtractionFailedError


def refused(call, *args):
    try:
        call(*args)
    except ExtractionFailedError as err:
        print(err)
    else:
        raise SystemExit(f"{call.__name__} accepted a model that misses its targets")


extract._mader_descent = lambda work, d: None  # returns without shrinking K_10
refused(mader_min_degree_minor, complete_graph(10), 6)
sides = (range(10), range(8, 18))
split = graph_from_edge_list(
    18, sorted({(a, b) for side in sides for a in side for b in side if a < b})
)
refused(extract._certify_dense_connected, MinorModel(split, [{v} for v in range(18)]), 18)
"""


def test_descent_certificates_refuse_under_optimize():
    """Both checks that certify the descent's model raise a typed error
    with asserts stripped: a descent that leaves K_10 above order 6, and
    two K_10 sharing two vertices, which meet the degree bound for d = 18
    but have connectivity 2 < 18/6."""
    assert run_optimized(_CERTIFICATE_SCRIPT).splitlines() == [
        "descent finished without meeting the order/degree targets",
        "restriction finished without meeting the density targets",
    ]


def test_dense_connected_on_seeded_graphs():
    for i in range(20):
        rng = Rng(derive_seed(32, i))
        d = (6, 8)[i % 2]
        while True:
            n = 20 + rng.below(31)
            g = random_graph(n, Fraction(3, 5), rng.spawn(rng.below(1 << 30)))
            if average_degree(g) >= d:
                break
        model = dense_connected_minor(g, d)
        pat = require_valid(model).pattern
        assert pat.n <= d
        assert 3 * pat.min_degree() >= d
        assert 6 * vertex_connectivity(pat) >= d


def test_k_connected_subgraph():
    g = complete_graph(10)
    keep = k_connected_subgraph(g, 2)
    sub, _ = induced_subgraph(g, keep)
    assert vertex_connectivity(sub) >= 2
    with pytest.raises(HypothesisViolatedError):
        k_connected_subgraph(petersen(), 1)  # average degree 3 < 4
