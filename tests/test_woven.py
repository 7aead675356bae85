from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from minorforge import (
    MinorModel,
    greedy_dense_subgraph,
    audit_path_family,
    build_dense_minor,
    check_wovenness,
    complement_max_degree,
    complete_graph,
    graph_from_edge_list,
    is_eps_t_dense,
    is_rooted_at,
    random_graph,
    realize_woven_from_dense_minor,
    require_valid,
    validate_model,
)
from minorforge.config import WOVEN_CAP
from minorforge.errors import (
    Budget,
    DensityNotMetError,
    HypothesisViolatedError,
    InternalInfeasibleError,
    MinorforgeError,
    TooLargeError,
)
from minorforge.graph import Graph, mask_of, mask_vertices
from minorforge.rng import Rng, derive_seed

import woven_reference as woven_ref


def _cut_gadget():
    """Two K_4 blocks glued on vertices {0, 1}: every route between the
    outer parts must pass the shared pair."""
    edges = set()
    for block in ({0, 1, 2, 3}, {0, 1, 4, 5}):
        bs = sorted(block)
        for i in range(4):
            for j in range(i + 1, 4):
                edges.add((bs[i], bs[j]))
    return graph_from_edge_list(6, sorted(edges))


def test_complete_graph_is_woven():
    report = check_wovenness(complete_graph(5), Fraction(1, 2), 1, 1)
    assert report.verdict == "proven"
    assert report.counterexample is None
    # roots, sources, targets each range over all five vertices: overlaps
    # with the roots and the trivial source=target pair are admissible
    assert report.checked == 5 * 5 * 5
    for rec in report.records[:5]:
        assert rec.ok


def test_gadget_is_refuted_with_certificate():
    g = _cut_gadget()
    report = check_wovenness(g, Fraction(1, 2), 2, 1)
    assert report.verdict == "refuted-with-counterexample"
    bad = report.counterexample
    assert bad is not None
    assert not bad.ok
    # the stored triple really separates: both glue vertices are roots, so
    # any source left of the cut cannot reach a target on the right
    assert set(bad.roots) == {0, 1}


def test_exhaustive_cap_and_validation():
    with pytest.raises(TooLargeError):
        check_wovenness(complete_graph(10), Fraction(1, 2), 1, 1)
    with pytest.raises(HypothesisViolatedError):
        check_wovenness(complete_graph(5), Fraction(1, 2), 0, 1)
    with pytest.raises(HypothesisViolatedError):
        check_wovenness(complete_graph(5), Fraction(0), 1, 1)
    with pytest.raises(HypothesisViolatedError):
        check_wovenness(complete_graph(5), Fraction(1, 2), 1, -1)


def _decided(report):
    """Everything a wovenness report decides: the verdict, the count, and
    each record's triple, outcome, fragments and paths."""
    return report.verdict, report.checked, report.counterexample, [
        (rec.roots, rec.sources, rec.targets, rec.ok,
         rec.model and rec.model.fragments, rec.linkage and rec.linkage.paths)
        for rec in report.records
    ]


def _small_hosts():
    """Seeded G(n, p) on 5 to 7 vertices, at p = 1/2 and 5/6."""
    for i in range(6):
        n, p = 5 + i % 3, (Fraction(1, 2), Fraction(5, 6))[i // 3]
        yield random_graph(n, p, Rng(derive_seed(31, i)))


def test_memoised_wovenness_matches_the_reference():
    """Reusing a rooted model search decides every triple as searching
    afresh does: same verdict, count, records, fragments and paths."""
    verdicts = Counter()
    for g in _small_hosts():
        for a in (1, 2):
            for b in (0, 1):
                report = check_wovenness(g, Fraction(1, 2), a, b)
                expected, _ = woven_ref.check_wovenness(g, Fraction(1, 2), a, b)
                assert _decided(report) == _decided(expected), (g.edges(), a, b)
                verdicts[report.verdict] += 1
    assert verdicts["proven"] and verdicts["refuted-with-counterexample"]


@pytest.mark.parametrize("seed_index", [0, 1])
def test_memoised_wovenness_runs_out_at_the_same_budgets(monkeypatch, seed_index):
    """A repeated model search is charged its recorded nodes again, so for
    every node budget up to the reference's whole spend and one past it,
    the library raises TooLargeError exactly when the reference does, and
    otherwise returns the same report."""
    import minorforge.woven as woven

    g = (complete_graph(4), random_graph(6, Fraction(1, 2), Rng(derive_seed(31, 1))))[seed_index]
    _, total = woven_ref.check_wovenness(g, Fraction(1, 2), 2, 1)
    raised = 0
    for nodes in range(1, total + 2):
        monkeypatch.setattr(woven, "SEARCH_NODES", nodes)
        try:
            expected, _ = woven_ref.check_wovenness(g, Fraction(1, 2), 2, 1, nodes)
        except TooLargeError:
            with pytest.raises(TooLargeError):
                check_wovenness(g, Fraction(1, 2), 2, 1)
            raised += 1
        else:
            assert _decided(check_wovenness(g, Fraction(1, 2), 2, 1)) == _decided(expected)
    assert raised == total


def test_wovenness_spends_the_reference_nodes(monkeypatch):
    """The memoised, table-driven walk charges exactly the nodes of the
    reference walk, which searches every model afresh, on every small
    host, root count and pair count."""
    import minorforge.woven as woven

    built = []

    class Recorded(Budget):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(woven, "Budget", Recorded)
    for g in _small_hosts():
        for a in (1, 2):
            for b in (0, 1):
                check_wovenness(g, Fraction(1, 2), a, b)
                _, spent = woven_ref.check_wovenness(g, Fraction(1, 2), a, b)
                assert built[-1].spent == spent, (g.edges(), a, b)


def test_host_tables_match_the_mask_helpers():
    """Both per-host tables agree with ``mask_vertices`` and
    ``Graph.neighborhood`` on every mask of seeded hosts up to the cap."""
    import minorforge.woven as woven

    for n in range(WOVEN_CAP + 1):
        g = random_graph(n, Fraction(1, 2), Rng(derive_seed(32, n)))
        verts, nb = woven._host_tables(g)
        assert len(verts) == len(nb) == 1 << n
        for m in range(1 << n):
            assert verts[m] == tuple(mask_vertices(m)), (n, m)
            assert nb[m] == g.neighborhood(m), (n, m)


def test_wovenness_refuses_what_it_cannot_honour():
    """A root set or endpoint list longer than the host, a fractional or
    bool count, and eps of 1 or more are refused with the bad value as
    evidence, where they used to prove vacuously or fail in itertools."""
    k3 = complete_graph(3)
    for eps, a, b, bad in (
        (Fraction(1, 2), 4, 1, 4),
        (Fraction(1, 2), 1, 4, 4),
        (Fraction(2), 1, 1, Fraction(2)),
        (Fraction(1), 1, 1, Fraction(1)),
        (Fraction(1, 2), 1.5, 1, 1.5),
        (Fraction(1, 2), 1, 0.5, 0.5),
        (Fraction(1, 2), True, 2, True),
        (Fraction(1, 2), 1, False, False),
    ):
        with pytest.raises(HypothesisViolatedError) as info:
            check_wovenness(k3, eps, a, b)
        assert info.value.evidence == bad and type(info.value.evidence) is type(bad)
    # the largest legal counts still run: every vertex a root, every one an endpoint
    assert check_wovenness(k3, Fraction(1, 2), 3, 3).checked > 0


def test_wovenness_reuses_repeated_model_searches(monkeypatch):
    """On K_6 with two roots and one pair most model attempts repeat an
    (allowed, roots) key already searched; the library runs the search
    once per key, fewer times than the reference attempts a model."""
    import minorforge.woven as woven

    runs = Counter()

    def counted(module, tag):
        search = module._rooted_dense_model

        def wrapper(*args):
            runs[tag] += 1
            return search(*args)

        monkeypatch.setattr(module, "_rooted_dense_model", wrapper)

    counted(woven, "library")
    counted(woven_ref, "reference")
    g = complete_graph(6)
    report = check_wovenness(g, Fraction(1, 2), 2, 1)
    expected, _ = woven_ref.check_wovenness(g, Fraction(1, 2), 2, 1)
    assert _decided(report) == _decided(expected)
    assert 0 < runs["library"] < runs["reference"], runs


def test_memoised_linkages_are_audited_and_shared():
    """Every proven record's linkage re-audits clean, and records whose
    linkages have equal pairs and paths share one audited family."""
    shared = 0
    for g in _small_hosts():
        for a in (1, 2):
            for b in (0, 1):
                report = check_wovenness(g, Fraction(1, 2), a, b)
                proven = [rec for rec in report.records if rec.ok]
                by_linkage = {}
                for rec in proven:
                    fam = rec.linkage
                    assert audit_path_family(g, fam) == [], (g.edges(), a, b, rec)
                    assert fam.pairs == tuple(zip(rec.sources, rec.targets))
                    first = by_linkage.setdefault((fam.pairs, fam.paths), fam)
                    assert first is fam, (g.edges(), a, b, rec)
                shared += len(proven) - len(by_linkage)
    assert shared


def _counted_audits(monkeypatch, module, seen: list):
    audit = module.require_paths

    def counted(g, fam):
        seen.append((fam.pairs, fam.paths))
        return audit(g, fam)

    monkeypatch.setattr(module, "require_paths", counted)


def test_wovenness_audits_each_linkage_once(monkeypatch):
    """On K_6 with two roots and one pair many triples find a linkage
    already found: the library audits each distinct (pairs, paths) once,
    fewer times than the reference audits."""
    import minorforge.woven as woven

    library, reference = [], []
    _counted_audits(monkeypatch, woven, library)
    _counted_audits(monkeypatch, woven_ref, reference)
    g = complete_graph(6)
    report = check_wovenness(g, Fraction(1, 2), 2, 1)
    expected, _ = woven_ref.check_wovenness(g, Fraction(1, 2), 2, 1)
    assert _decided(report) == _decided(expected)
    assert max(Counter(library).values()) == 1
    assert 0 < len(library) < len(reference), (len(library), len(reference))


def test_linkage_memo_keeps_only_audited_families(monkeypatch):
    """Every triple of a call reads one memo, which holds exactly the
    families the records carry, each under its own (pairs, paths); a
    family whose audit fails is never stored, so the same triple is
    audited, and refused, again."""
    import minorforge.woven as woven

    memos, decide, witness = [], woven._Weave.witness, woven._triple_witness

    def spy(state, *args):
        memos.append(state.memo)
        return decide(state, *args)

    monkeypatch.setattr(woven._Weave, "witness", spy)
    g = random_graph(6, Fraction(5, 6), Rng(derive_seed(31, 4)))
    report = check_wovenness(g, Fraction(1, 2), 2, 1)
    assert len(memos) == report.checked > 1
    assert all(memo is memos[0] for memo in memos)
    stored = {
        key: fam for key, fam in memos[0].items() if isinstance(fam, woven.PathFamily)
    }
    assert all(key == (fam.pairs, fam.paths) for key, fam in stored.items())
    carried = {id(rec.linkage) for rec in report.records if rec.ok}
    assert {id(fam) for fam in stored.values()} == carried

    def refuse(g, fam):
        raise InternalInfeasibleError("refused for the test")

    monkeypatch.setattr(woven, "require_paths", refuse)
    memo: dict = {}
    for _ in range(2):
        budget = Budget(100, TooLargeError, "wovenness search budget exhausted")
        with pytest.raises(InternalInfeasibleError):
            witness(complete_graph(5), Fraction(1, 2), (0, 1), ((2, 3),), budget, memo)
    assert not any(isinstance(fam, woven.PathFamily) for fam in memo.values())


def test_library_validates_each_model_at_most_once(monkeypatch):
    """Every model the pipeline and the woven construction touch is
    validated once: later reads of its pattern, and the predicates, reuse
    the first validation, and no equal model on the same host is built and
    validated again."""
    import minorforge.model as model_mod

    seen, validate = [], model_mod.validate_model

    def counted(m):
        seen.append(m)
        return validate(m)

    monkeypatch.setattr(model_mod, "validate_model", counted)
    g = random_graph(200, Fraction(1, 2), Rng(derive_seed(5, 1, 0, 0)))
    build_dense_minor(g, Fraction(1, 10), 5, Fraction(8), Rng(derive_seed(5, 1, 0, 1)))
    edges = complete_graph(68).edges()
    k68_less_one = graph_from_edge_list(68, edges[:100] + edges[101:])
    request = ((0, 1), tuple(range(2, 8)), tuple(range(8, 14)))
    realize_woven_from_dense_minor(k68_less_one, Fraction(1, 2), 2, request)
    counts = Counter((m.host, m.fragments) for m in seen)
    # three models in the pipeline, two in the woven construction: its
    # greedy singletons take the induced subgraph of the density check as
    # their pattern, and the one it hands the attached search derives its
    # pattern from theirs
    assert len(seen) == 5 and max(counts.values()) == 1, counts


def _woven_corpus():
    """K_80 and K_68 less one or two seeded edges, each with a seeded
    request of 2 roots and 6 pairs."""
    yield complete_graph(80), ((0, 1), tuple(range(60, 66)), tuple(range(66, 72)))
    for i in range(6):
        rng = Rng(derive_seed(24, i))
        edges = complete_graph(68).edges()
        drop = set()
        while len(drop) < 1 + i % 2:
            drop.add(rng.below(len(edges)))
        order = list(range(68))
        rng.shuffle(order)
        g = graph_from_edge_list(68, [e for j, e in enumerate(edges) if j not in drop])
        yield g, (tuple(order[:2]), tuple(order[2:8]), tuple(order[8:14]))


def test_woven_derives_the_attached_search_model_pattern(monkeypatch):
    """The avoidance count that ``realize_woven_from_dense_minor`` hands
    the attached loop, read off the dense minor's pattern induced on the
    kept fragments, equals the pattern complement's maximum degree of those
    fragments validated from scratch in the host."""
    import minorforge.woven as woven

    seen, attached = [], woven._attached_model

    def spy(g1, s, d_sets, n_avoid):
        seen.append((d_sets, n_avoid))
        return attached(g1, s, d_sets, n_avoid)

    monkeypatch.setattr(woven, "_attached_model", spy)
    hosts = list(_woven_corpus())
    for g, request in hosts:
        realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request)
    assert len(seen) == len(hosts) == 7
    for (g, _), (d_sets, n_avoid) in zip(hosts, seen):
        assert n_avoid == complement_max_degree(require_valid(MinorModel(g, d_sets)).pattern)


def test_woven_derives_the_greedy_singleton_pattern(monkeypatch):
    """With no dense model given, the greedy singletons carry the subgraph
    that the density check induced as their pattern, unvalidated, and
    validating the same singletons from scratch gives an equal pattern."""
    derived, built = [], MinorModel._derived

    def recorded(host, fragments, pattern):
        derived.append(built(host, fragments, pattern))
        return derived[-1]

    monkeypatch.setattr(MinorModel, "_derived", staticmethod(recorded))
    for g, request in _woven_corpus():
        realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request)
        (model,) = [m for m in derived if m.host is g]
        derived.clear()
        cand = greedy_dense_subgraph(g, 64)
        assert model.fragments == tuple(frozenset((v,)) for v in cand)
        assert model.pattern == validate_model(MinorModel(g, model.fragments)).pattern


def test_realize_from_dense_minor_end_to_end():
    g = complete_graph(80)
    request = ((0, 1), tuple(range(60, 66)), tuple(range(66, 72)))
    model, fam = realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request)
    require_valid(model)
    assert is_rooted_at(model, request[0])
    assert is_eps_t_dense(model.pattern, Fraction(1, 2), 2)
    assert audit_path_family(g, fam) == []
    assert fam.pairs == tuple(zip(request[1], request[2]))
    assert not model.used_vertices() & fam.vertices()


def test_realize_validates_connectivity_and_shape():
    small = complete_graph(12)  # connectivity 11 < 16
    request = ((0, 1), tuple(range(2, 8)), tuple(range(8, 14)))
    with pytest.raises(HypothesisViolatedError):
        realize_woven_from_dense_minor(
            small, Fraction(1, 2), 2, ((0, 1), tuple(range(2, 8)), (8, 9, 10, 11, 2, 3))
        )
    g = complete_graph(80)
    with pytest.raises(HypothesisViolatedError):
        # sources overlap the roots
        realize_woven_from_dense_minor(
            g, Fraction(1, 2), 2, ((0, 1), (1, 2, 3, 4, 5, 6), tuple(range(10, 16)))
        )
    with pytest.raises(HypothesisViolatedError):
        # wrong source count for a = 2
        realize_woven_from_dense_minor(
            g, Fraction(1, 2), 2, ((0, 1), (2, 3), (4, 5))
        )
    for request in (((0, 1), tuple(range(2, 8))), ((0, 1), (2,), (3,), (4,)), ((0, 1), 2, 3)):
        # not three lists
        with pytest.raises(HypothesisViolatedError, match="three lists") as info:
            realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request)
        assert info.value.evidence == request


def test_realize_refuses_a_host_without_a_dense_subgraph():
    """Connectivity 51 clears the 16 asked for, but the greedy subgraph on
    64 vertices of G(80, 3/4) is far from (1/512, 64)-dense."""
    g = random_graph(80, Fraction(3, 4), Rng(1))
    request = ((0, 1), tuple(range(2, 8)), tuple(range(8, 14)))
    with pytest.raises(HypothesisViolatedError, match="not .*-dense"):
        realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request)


def test_realize_with_a_supplied_dense_model():
    """A supplied dense minor is used as given: the greedy subgraph's
    singletons give the witness the search finds by itself; a sparse model
    or one on another host is refused."""
    edges = complete_graph(68).edges()
    g = graph_from_edge_list(68, edges[:100] + edges[101:])
    request = ((0, 1), tuple(range(2, 8)), tuple(range(8, 14)))
    greedy = MinorModel(g, [{v} for v in greedy_dense_subgraph(g, 64)])
    model, fam = realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request, greedy)
    found, found_fam = realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request)
    assert (model.fragments, fam.paths) == (found.fragments, found_fam.paths)
    # 64 singletons of G(80, 3/4), about three quarters of the pairs joined
    g_sparse = random_graph(80, Fraction(3, 4), Rng(1))
    sparse = MinorModel(g_sparse, [{v} for v in range(64)])
    with pytest.raises(DensityNotMetError):
        realize_woven_from_dense_minor(g_sparse, Fraction(1, 2), 2, request, sparse)
    elsewhere = MinorModel(complete_graph(68), [{v} for v in range(64)])
    with pytest.raises(HypothesisViolatedError, match="given host"):
        realize_woven_from_dense_minor(g, Fraction(1, 2), 2, request, elsewhere)


def test_realize_at_the_counting_bounds(monkeypatch):
    """K_{32a} less a cycle on M = floor((eps/256) C(32a, 2)) vertices is
    (eps/256, 32a)-dense with the least room the counting allows, at eps =
    255/256: every cycle vertex misses two others, above the cap floor(eps
    a / 2) <= 1, so all M are dropped, and with every pair collapsed the
    roots and the pairs drop 4a more; at a = 4 that keeps exactly 20a + 1
    branch sets.  The cycle, the roots and the endpoints are seeded and
    disjoint; every request gets an audited witness."""
    import minorforge.woven as woven

    eps, kept, attached = Fraction(255, 256), [], woven._attached_model

    def spy(g1, s, d_sets, n_avoid):
        kept.append(len(d_sets))
        return attached(g1, s, d_sets, n_avoid)

    monkeypatch.setattr(woven, "_attached_model", spy)
    for a in (2, 3, 4):
        n = 32 * a
        m_missing = int(eps / 256 * (n * (n - 1) // 2))
        for collapsed in (False, True):
            for seed in range(4):
                rng = Rng(derive_seed(41, a, seed))
                order = list(range(n))
                rng.shuffle(order)
                cycle = order[:m_missing]
                gone = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
                edges = [e for e in complete_graph(n).edges() if frozenset(e) not in gone]
                g = graph_from_edge_list(n, edges)
                roots, rest = order[m_missing:m_missing + a], order[m_missing + a:]
                sources = rest[:3 * a]
                request = (roots, sources, sources if collapsed else rest[3 * a:6 * a])
                singletons = MinorModel(g, [{v} for v in range(n)])
                model, fam = realize_woven_from_dense_minor(g, eps, a, request, singletons)
                require_valid(model)
                assert is_rooted_at(model, roots)
                assert audit_path_family(g, fam) == []
                assert kept[-1] == n - m_missing - (4 * a if collapsed else a)
    assert len(kept) == 24 and kept[-4:] == [20 * 4 + 1] * 4


def test_realize_checks_the_host_before_the_model():
    """A model from another host is refused as living elsewhere, before its
    fragments are checked: {0, 2} is not connected in its own host."""
    one_edge = graph_from_edge_list(68, [(0, 1)])
    elsewhere = MinorModel(one_edge, [{0, 2}] + [{v} for v in range(3, 66)])
    request = ((0, 1), tuple(range(2, 8)), tuple(range(8, 14)))
    with pytest.raises(HypothesisViolatedError, match="given host"):
        realize_woven_from_dense_minor(complete_graph(68), Fraction(1, 2), 2, request, elsewhere)


def _outcome(realize, g, request):
    """The witness's fragments and paths, or the error's type and message."""
    try:
        model, fam = realize(g, Fraction(1, 2), 2, request)
    except MinorforgeError as exc:
        return type(exc), str(exc)
    return model.fragments, fam.paths


def _request(rng):
    order = list(range(68))
    rng.shuffle(order)
    return order, (tuple(order[:2]), tuple(order[2:8]), tuple(order[8:14]))


def _starved_roots():
    """K_68 with each root joined to the other root, the endpoints and at
    most its three least free vertices; a third of the cases leave the
    second root only the first root's pick."""
    for i in range(12):
        rng = Rng(derive_seed(32, i))
        order, request = _request(rng)
        free = sorted(order[14:])
        keep = [set(free[:rng.below(4)]) for _ in range(2)]
        if i % 3 == 0:
            keep[1] = set(free[:1])
        cut = {(r, v) for r, kept in zip(request[0], keep) for v in free if v not in kept}
        edges = [e for e in complete_graph(68).edges() if e not in cut and e[::-1] not in cut]
        yield graph_from_edge_list(68, edges), request


def _thinned_hosts():
    """K_68 less 20 to 37 seeded edges: the more edges go, the fewer branch
    sets are usable, from a witness to no connector left for a pair to
    too few usable branch sets."""
    edges = complete_graph(68).edges()
    for k in range(20, 38):
        rng = Rng(derive_seed(31, k))
        drop = set()
        while len(drop) < k:
            drop.add(rng.below(len(edges)))
        g = graph_from_edge_list(68, [e for j, e in enumerate(edges) if j not in drop])
        yield g, _request(rng)[1]


def test_realize_matches_the_id_map_reference(monkeypatch):
    """The mask construction returns the reference's witness on every host
    of the corpus.  Each pair is routed inside the same three branch sets
    too: a path seldom shows its connector, since the connector's vertices
    are rarely the least on it, so the routing searches are compared as
    well, read back in host ids.  Seeded hosts that starve a root of free
    neighbours (connectivity reported as asked for) or leave too few usable
    branch sets (any greedy subgraph taken as dense) break the counting the
    construction rests on: where the reference refuses them, the library
    must raise too, InternalInfeasibleError at the step the counting
    guarantees.  Two thinned hosts keep too few branch sets for the
    attachment order: the reference's ``rooted_from_minor`` refuses them at
    its intake, the library at its own count of the kept sets."""
    import minorforge.woven as woven

    searches, search = [], Graph.shortest_path

    def spy(self, sources, targets, within):
        if within >= 0:  # not the pair cuts' seeding, which avoids a mask
            searches.append((self.n, sources, targets, within))
        return search(self, sources, targets, within)

    def run(realize, g, request):
        searches.clear()
        got = _outcome(realize, g, request)
        # the reference routes in the host without the roots and the
        # collapsed pairs, numbered in ascending order
        removed = set(request[0]) | {s for s, t in zip(*request[1:]) if s == t}
        host = [v for v in range(g.n) if v not in removed]

        def lift(mask):
            return mask_of(host[x] for x in mask_vertices(mask))

        return got, [tuple(q if n == g.n else map(lift, q)) for n, *q in searches]

    def compare(cases):
        kinds = Counter()
        for g, request in cases:
            got, routes = run(woven.realize_woven_from_dense_minor, g, request)
            want = run(woven_ref.realize_woven_from_dense_minor, g, request)
            if isinstance(want[0][1], str):  # the reference refused
                assert isinstance(got[1], str), (want[0], got)
                kinds[got[0].__name__] += 1
            else:
                assert (got, routes) == want
                kinds["witness"] += 1
        return kinds

    monkeypatch.setattr(Graph, "shortest_path", spy)
    assert compare(_woven_corpus()) == {"witness": 7}
    with monkeypatch.context() as patch:
        for module in (woven, woven_ref):
            patch.setattr(module, "vertex_connectivity_with_cutset", lambda g, k: (k, ()))
        assert compare(_starved_roots()) == {"witness": 5, "InternalInfeasibleError": 7}
    with monkeypatch.context() as patch:
        for module in (woven, woven_ref):
            patch.setattr(module, "is_eps_t_dense", lambda *args: True)
        assert compare(_thinned_hosts()) == {"witness": 9, "InternalInfeasibleError": 9}
