from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from minorforge import (
    ExtractionTrace,
    MinorModel,
    average_degree,
    complete_graph,
    dense_connected_minor,
    dense_connected_minor_with_trace,
    disjoint_k_connected_collection,
    graph_from_edge_list,
    induced_subgraph,
    k_connected_subgraph,
    mader_min_degree_minor,
    mader_min_degree_minor_with_trace,
    peel_dense_subset,
    random_graph,
    replay_extraction,
    require_valid,
    vertex_connectivity,
)
from minorforge import extract
from minorforge.errors import (
    ExtractionFailedError,
    HypothesisViolatedError,
    InsufficientError,
    ParseError,
)
from minorforge.graph import mask_vertices
from minorforge.rng import Rng, derive_seed

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


def test_trace_replays_to_the_same_model():
    rng = Rng(derive_seed(31, 0))
    g = random_graph(24, Fraction(1, 2), rng)
    model, trace = mader_min_degree_minor_with_trace(g, 8)
    replayed = replay_extraction(g, trace)
    assert replayed.fragments == model.fragments
    assert trace.final_model.fragments == model.fragments


def _tampered(trace, index):
    steps = list(trace.steps)
    kind, verts, m_after = steps[index]
    steps[index] = (kind, verts, m_after + 1)
    return dataclasses.replace(trace, steps=tuple(steps))


def test_replay_rejects_a_tampered_trace():
    g = random_graph(24, Fraction(1, 2), Rng(derive_seed(31, 0)))
    _, trace = mader_min_degree_minor_with_trace(g, 8)
    with pytest.raises(ExtractionFailedError, match="step 3"):
        replay_extraction(g, _tampered(trace, 3))
    bad_kind = dataclasses.replace(
        trace, steps=(("split", (0,), g.m),) + trace.steps[1:]
    )
    with pytest.raises(ParseError, match="step 0"):
        replay_extraction(g, bad_kind)


_TAMPER_SCRIPT = """
import dataclasses
from fractions import Fraction
from minorforge import (
    Rng, derive_seed, mader_min_degree_minor_with_trace, random_graph,
    replay_extraction,
)
from minorforge.errors import ExtractionFailedError

g = random_graph(24, Fraction(1, 2), Rng(derive_seed(31, 0)))
_, trace = mader_min_degree_minor_with_trace(g, 8)
steps = list(trace.steps)
kind, verts, m_after = steps[3]
steps[3] = (kind, verts, m_after + 1)
try:
    replay_extraction(g, dataclasses.replace(trace, steps=tuple(steps)))
except ExtractionFailedError as err:
    print(err)
else:
    raise SystemExit("tampered trace accepted")
"""


def test_replay_rejects_a_tampered_trace_under_optimize():
    assert "step 3" in run_optimized(_TAMPER_SCRIPT)


def test_replay_rejects_a_contraction_of_nonadjacent_fragments():
    path = graph_from_edge_list(3, [(0, 1), (1, 2)])
    trace = ExtractionTrace(
        steps=(("contract", (0, 2), 1),),
        final_model=MinorModel(path, [{0, 2}, {1}]),
    )
    with pytest.raises(ExtractionFailedError, match="step 0"):
        replay_extraction(path, trace)


def test_replay_rejects_an_unknown_representative():
    path = graph_from_edge_list(3, [(0, 1), (1, 2)])
    trace = ExtractionTrace(
        steps=(("contract", (0, 1), 1), ("delete", (1,), 0)),
        final_model=MinorModel(path, [{0, 1}]),
    )
    with pytest.raises(ParseError, match="step 1"):
        replay_extraction(path, trace)


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
    every step."""

    def delete(self, rep):
        super().delete(rep)
        self.audit()

    def contract(self, a, b):
        super().contract(a, b)
        self.audit()

    def audit(self):
        queued = set(self.heap)
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
            assert self.lb[x] <= least[0]
            assert (self.lb[x], x) in queued
            if self.exact >> x & 1:
                assert (self.lb[x], self.arg[x]) == least


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
    for g, d in _descent_hosts(240):
        reference = _descend(
            extract._Work(g), d,
            lambda work, dd: _full_scan_descent(work, dd, hits),
        )
        assert _descend(_AuditedWork(g), d, extract._mader_descent) == reference
    assert hits["delete"] >= 1
    assert hits["degree_safe"] >= 1
    assert hits["exhaustive"] >= 1


def test_dense_connected_contract():
    # two cliques banged together force the cut-restriction step
    g = _two_cliques(6)
    model = dense_connected_minor(g, 6)
    pat = require_valid(model).pattern
    assert 2 <= pat.n <= 6
    assert 3 * pat.min_degree() >= 6
    assert 6 * vertex_connectivity(pat) >= 6


def test_dense_connected_on_seeded_graphs():
    for i in range(20):
        rng = Rng(derive_seed(32, i))
        d = (6, 8)[i % 2]
        while True:
            n = 20 + rng.below(31)
            g = random_graph(n, Fraction(3, 5), rng.spawn(rng.below(1 << 30)))
            if average_degree(g) >= d:
                break
        model, trace = dense_connected_minor_with_trace(g, d)
        pat = require_valid(model).pattern
        assert pat.n <= d
        assert 3 * pat.min_degree() >= d
        assert 6 * vertex_connectivity(pat) >= d
        assert replay_extraction(g, trace).fragments == model.fragments


def test_peel_dense_subset_postcondition():
    g = petersen()
    kept = peel_dense_subset(g, range(10), 3, 1)
    kept_set = set(kept)
    for v in kept:
        inside = len(g.neighbors(v) & kept_set)
        assert inside >= max(1, Fraction(g.degree(v), 3))
    # a guaranteed-surplus instance stays nonempty
    dense = complete_graph(12)
    assert peel_dense_subset(dense, range(12), 3, 2)
    with pytest.raises(HypothesisViolatedError):
        peel_dense_subset(g, range(10), 2, 1)


def test_k_connected_subgraph():
    g = complete_graph(10)
    keep = k_connected_subgraph(g, 2)
    sub, _ = induced_subgraph(g, keep)
    assert vertex_connectivity(sub) >= 2
    with pytest.raises(HypothesisViolatedError):
        k_connected_subgraph(petersen(), 1)  # average degree 3 < 4


def test_disjoint_collection_and_insufficiency():
    g = _two_cliques(9)
    found = disjoint_k_connected_collection(g, 2, max_size=9, want=2)
    assert len(found) == 2
    assert not set(found[0]) & set(found[1])
    for keep in found:
        sub, _ = induced_subgraph(g, keep)
        assert vertex_connectivity(sub) >= 2
    with pytest.raises(InsufficientError) as info:
        disjoint_k_connected_collection(g, 2, max_size=9, want=3)
    assert info.value.found == 2
