from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from minorforge import (
    MinorModel,
    attached_model_search,
    complement_max_degree,
    complete_graph,
    find_separation_avoiding,
    graph_from_edge_list,
    is_attached_to,
    random_graph,
    require_valid,
    rooted_from_minor,
)
from minorforge.errors import HypothesisViolatedError, MinorforgeError
from minorforge.graph import mask_of
from minorforge.rng import Rng, derive_seed

import rooted_reference as rooted_ref
import separation_reference as sep_ref
from conftest import all_separations
from model_reference import anticomplete


def _brute_avoiding_separation_exists(g, s, t_order, d_sets, n_avoid):
    s = frozenset(s)
    for a, b in all_separations(g):
        if not s <= a:
            continue
        if len(a & b) >= t_order:
            continue
        far = b - a
        if sum(1 for d in d_sets if d <= far) > n_avoid:
            return True
    return False


def _random_instance(rng):
    n = 5 + rng.below(4)
    g = random_graph(n, Fraction(2, 5), rng.spawn(1))
    verts = list(range(n))
    rng.shuffle(verts)
    s = frozenset(verts[: 1 + rng.below(2)])
    pool = [v for v in verts if v not in s]
    d_sets = []
    at = 0
    for _ in range(rng.below(4)):
        size = 1 + rng.below(2)
        if at + size > len(pool):
            break
        d_sets.append(frozenset(pool[at: at + size]))
        at += size
    t_order = 1 + rng.below(3)
    n_avoid = rng.below(3)
    return g, s, t_order, d_sets, n_avoid


def test_separation_search_matches_brute_force():
    found_some = refused_some = False
    for i in range(50):
        rng = Rng(derive_seed(40, i))
        g, s, t_order, d_sets, n_avoid = _random_instance(rng)
        got = find_separation_avoiding(g, s, t_order, d_sets, n_avoid)
        expect = _brute_avoiding_separation_exists(g, s, t_order, d_sets, n_avoid)
        if got is None:
            assert not expect
            refused_some = True
        else:
            assert expect
            found_some = True
            assert got.violations(g) == []
            assert s <= got.a
            assert got.order < t_order
            far = got.b - got.a
            assert sum(1 for d in d_sets if d <= far) > n_avoid
    assert found_some and refused_some  # the ensemble exercises both branches


def test_separation_search_validates_inputs():
    g = complete_graph(5)
    with pytest.raises(HypothesisViolatedError):
        find_separation_avoiding(g, {0}, 2, [set()], 0)
    with pytest.raises(HypothesisViolatedError):
        find_separation_avoiding(g, {0}, 2, [{1, 2}, {2, 3}], 0)
    with pytest.raises(HypothesisViolatedError):
        find_separation_avoiding(g, {0}, 2, [{1}], -1)
    with pytest.raises(HypothesisViolatedError):
        find_separation_avoiding(g, {0}, -1, [{1}, {2}], 0)
    # no separation has order below 0
    assert find_separation_avoiding(g, {0}, 0, [{1}, {2}], 0) is None
    # more subfamilies required than sets given: vacuously none
    assert find_separation_avoiding(g, {0}, 2, [{1}], 3) is None


def test_attached_search_on_complete_host():
    g = complete_graph(10)
    model = attached_model_search(g, (0, 1), [{v} for v in range(10)], 0)
    report = require_valid(model)
    assert len(model.fragments) == 8
    assert is_attached_to(model, (0, 1))
    assert complement_max_degree(report.pattern) == 0


def test_attached_search_on_seeded_dense_graphs():
    done = 0
    i = 0
    while done < 12:
        rng = Rng(derive_seed(41, i))
        i += 1
        n = 8 + rng.below(5)
        g = random_graph(n, Fraction(4, 5), rng.spawn(1))
        n_avoid = complement_max_degree(g)
        t = 1 + rng.below(2)
        if n < n_avoid + 2 * t or not g.is_connected():
            continue
        s = tuple(range(t))
        model = attached_model_search(g, s, [{v} for v in range(n)], n_avoid)
        report = require_valid(model)
        assert len(model.fragments) == n - t
        assert is_attached_to(model, s)
        assert complement_max_degree(report.pattern) <= n_avoid
        done += 1


def test_attached_search_rejects_blocked_host():
    # two K_5 blocks joined by a single edge; one cut vertex shields the far side
    edges = []
    for base in (0, 5):
        edges += [(base + i, base + j) for i in range(5) for j in range(i + 1, 5)]
    edges.append((4, 5))
    g = graph_from_edge_list(10, sorted(edges))
    d_list = [{v} for v in (5, 6, 7, 8, 9)]
    with pytest.raises(HypothesisViolatedError) as info:
        attached_model_search(g, (0, 1), d_list, 0)
    assert info.value.evidence is not None  # carries the separation


def test_attached_search_validates_inputs():
    g = complete_graph(6)
    singles = [{v} for v in range(6)]
    with pytest.raises(HypothesisViolatedError):
        attached_model_search(g, (), singles, 0)
    with pytest.raises(HypothesisViolatedError):
        attached_model_search(g, (0,), [{1}, {1, 2}], 0)
    with pytest.raises(HypothesisViolatedError):
        attached_model_search(g, (0, 1, 2), singles, 2)  # 6 < 2 + 2*3


def test_attached_search_refuses_a_set_anticomplete_to_too_many():
    """The precondition against the pairwise `anticomplete` count it
    replaced: the same error names the same first offending set."""
    refused = 0
    for i in range(60):
        rng = Rng(derive_seed(42, i))
        n = 8 + rng.below(6)
        g = random_graph(n, Fraction(1 + rng.below(3), 4), rng.spawn(1))
        verts = list(range(n))
        rng.shuffle(verts)
        s = frozenset(verts[:1 + rng.below(2)])
        # singletons and host edges, so every set is connected
        d_sets = []
        while verts:
            v = verts.pop()
            if verts and g.has_edge(v, verts[-1]) and rng.below(2):
                d_sets.append(frozenset((v, verts.pop())))
            else:
                d_sets.append(frozenset((v,)))
        n_avoid = rng.below(4)
        if len(d_sets) < n_avoid + 2 * len(s):
            continue
        avoid = [k for k, d in enumerate(d_sets) if not d & s]
        offending = [
            j for j in range(len(d_sets))
            if sum(1 for k in avoid if k != j and anticomplete(g, d_sets[j], d_sets[k]))
            > n_avoid
        ]
        if not offending:
            continue
        with pytest.raises(HypothesisViolatedError) as info:
            attached_model_search(g, s, d_sets, n_avoid)
        assert str(info.value) == (
            f"set {offending[0]} is anticomplete to too many avoidable sets"
        )
        refused += 1
    assert refused >= 20


def test_rooted_from_minor():
    g = complete_graph(12)
    j_model = MinorModel(g, [{v} for v in range(12)])
    model = rooted_from_minor(g, (0, 1, 2), j_model, 0)
    assert len(model.fragments) == 9
    assert is_attached_to(model, (0, 1, 2))


def test_rooted_from_minor_demands_connectivity():
    # two K_6 blocks and one bridge: the degree and count hypotheses hold
    # but a single vertex separates the sides
    edges = []
    for base in (0, 6):
        edges += [(base + i, base + j) for i in range(6) for j in range(i + 1, 6)]
    edges.append((5, 6))
    g = graph_from_edge_list(12, sorted(edges))
    j_model = MinorModel(g, [{v} for v in range(12)])
    with pytest.raises(HypothesisViolatedError) as info:
        rooted_from_minor(g, (0, 6), j_model, 6)
    assert info.value.evidence is not None  # names a cutset


def test_rooted_from_minor_checks_the_host_before_the_model():
    """A model from another host is refused as living elsewhere, before its
    fragments are checked: {0, 2} is not connected in its own host."""
    g = complete_graph(68)
    one_edge = graph_from_edge_list(68, [(0, 1)])
    elsewhere = MinorModel(one_edge, [{0, 2}] + [{v} for v in range(3, 68)])
    with pytest.raises(HypothesisViolatedError, match="given host"):
        rooted_from_minor(g, (0, 1), elsewhere, 0)


def _forced_cut_instance(rng, kind):
    """A host, s, t_order, d_sets and n_avoid of one of three kinds:
    "dense" G(n, 4/5 or 9/10) hosts, where most subfamilies see t_order
    vertices of s next to them; "sparse" G(n, 1/4 or 1/3) hosts with two or
    three roots and t_order at most 2, where flows still run; "planted"
    hosts of two random blocks joined only through a separator of
    c < t_order vertices, with s on one side (sometimes holding the whole
    separator, next to every vertex of the far block) and the sets on the
    other."""
    if kind == "planted":
        c = 1 + rng.below(3)
        left, right = 3 + rng.below(5), 4 + rng.below(6)
        n = left + c + right
        order = list(range(n))
        rng.shuffle(order)
        near, cut, far = order[:left], order[left:left + c], order[left + c:]
        p = Fraction(1 + rng.below(4), 5)
        edges = [(u, w) for side in (near + cut, cut + far)
                 for i, u in enumerate(side) for w in side[i + 1:]
                 if rng.below(p.denominator) < p.numerator]
        s_in_cut = rng.below(2)
        if s_in_cut:
            edges += [(u, w) for u in cut for w in far]
        g = graph_from_edge_list(n, {(min(e), max(e)) for e in edges})
        s = frozenset(near[: 1 + rng.below(2)] + (cut if s_in_cut else []))
        pool, t_order = far, c + 1 + rng.below(2)
    else:
        dense = kind == "dense"
        n = 9 + rng.below(8)
        p = Fraction(8 + rng.below(2), 10) if dense else Fraction(1, 3 + rng.below(2))
        g = random_graph(n, p, rng.spawn(1))
        verts = list(range(n))
        rng.shuffle(verts)
        width = 2 + rng.below(3) if dense else 2 + rng.below(2)
        s, pool = frozenset(verts[:width]), verts[width:]
        t_order = 1 + rng.below(width) if dense else 1 + rng.below(2)
    d_sets, at = [], 0
    for _ in range(2 + rng.below(4)):
        size = 1 + rng.below(2)
        if at + size > len(pool):
            break
        d_sets.append(frozenset(pool[at:at + size]))
        at += size
    return g, s, t_order, d_sets, rng.below(min(3, len(d_sets)))


def test_forced_cut_skip_matches_the_search_without_it(monkeypatch):
    """The separation-avoiding search skips the flow of every subfamily
    with t_order vertices of s next to it.  Against a verbatim copy of the
    loop that builds every flow, it returns the same separation, side for
    side, on dense hosts where the skip decides every subfamily the copy
    runs a flow for, sparse hosts where flows run and find nothing, and
    hosts with a planted separation."""
    import minorforge.rooted as rooted

    builds, engine = Counter(), rooted.SetFlow

    def counted(name):
        class CountedSetFlow(engine):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                builds[name] += 1
                super().__init__(*args, **kwargs)

        return CountedSetFlow

    monkeypatch.setattr(rooted, "SetFlow", counted("engine"))
    monkeypatch.setattr(sep_ref, "SetFlow", counted("reference"))
    outcomes = Counter()
    for i in range(390):
        kind = ("dense", "sparse", "planted")[i % 3]
        g, s, t_order, d_sets, n_avoid = _forced_cut_instance(Rng(derive_seed(42, i)), kind)
        builds.clear()
        got = find_separation_avoiding(g, s, t_order, d_sets, n_avoid)
        expect = sep_ref.find_separation_avoiding(g, s, t_order, d_sets, n_avoid)
        if expect is not None:
            assert got is not None and (got.a, got.b) == (expect.a, expect.b), (kind, i)
            outcomes["found"] += 1
        else:
            assert got is None, (kind, i)
            if builds["engine"]:
                outcomes["flows find none"] += 1
            elif builds["reference"]:
                outcomes["all skipped"] += 1
    assert min(outcomes[o] for o in ("all skipped", "flows find none", "found")) > 50, outcomes


def _planted_split_instance(rng):
    """Branch sets that reach the split: roots 0..t-1, a few near vertices,
    a layer X of t vertices (t - 1 now and then, so the hypothesis fails)
    joined almost completely to a dense far block B cut into singletons and
    adjacent pairs, and one isolated vertex.  The roots share one or two
    branch sets, each also holding a vertex of X so that it touches the far
    sets, as the anticomplete-count hypothesis needs."""
    t = 2 + rng.below(2)
    near = 1 + rng.below(3)
    width = t - (rng.below(4) == 0)
    n = t + near + width + 5 + rng.below(5)
    inner = list(range(t + near))
    xs = list(range(t + near, t + near + width))
    bs = list(range(t + near + width, n))
    edges = set()

    def add(u, v):
        edges.add((min(u, v), max(u, v)))

    for u in inner:
        for v in inner + xs:
            if u < v and rng.below(5) < 2:
                add(u, v)
        add(u, xs[rng.below(width)])
    for x in xs:
        for b in bs:
            if rng.below(6):
                add(x, b)
    for i, b in enumerate(bs):
        for c in bs[i + 1:]:
            if rng.below(8):
                add(b, c)
    roots = [{0, 1}, {2}] if t == 3 and rng.below(2) else [set(range(t))]
    for r, x in zip(roots, xs):
        add(min(r), x)
        r.add(x)
    for v in inner[t:] + xs:
        r = roots[rng.below(len(roots))]
        if rng.below(2) and not any(v in q for q in roots) and any(
            (min(v, w), max(v, w)) in edges for w in r
        ):
            r.add(v)
    far_sets, at = [], 0
    while at < len(bs):
        size = 1 + (rng.below(4) == 0 and at + 1 < len(bs))
        if size == 2:
            add(bs[at], bs[at + 1])
        far_sets.append(set(bs[at:at + size]))
        at += size
    perm = list(range(n + 1))  # vertex n stays isolated; the loop drops it
    if rng.below(2):
        rng.shuffle(perm)
    g = graph_from_edge_list(n + 1, sorted((perm[u], perm[v]) for u, v in edges))
    d_sets = [frozenset(perm[v] for v in d) for d in roots + far_sets]
    rng.shuffle(d_sets)
    return g, frozenset(perm[v] for v in range(t)), d_sets, rng.below(3)


def _random_split_instance(rng):
    """G(n, p) plus up to two isolated vertices, which the loop drops, and 1
    to 3 roots.  Branch sets are grown around random vertices from some of
    their neighbours, or, for half the hosts, are the singletons of the
    other vertices, so that no edge can be contracted and the loop goes
    straight to the finish."""
    n = 6 + rng.below(6)
    g = random_graph(n, Fraction(1 + rng.below(4), 5), rng.spawn(1))
    lone = rng.below(3)
    g = graph_from_edge_list(n + lone, g.edges())
    verts = list(range(n))
    rng.shuffle(verts)
    s = frozenset(verts[:1 + rng.below(3)])
    grow = rng.below(2)
    taken, d_sets = set(), []
    for v in verts:
        if v in taken or (grow and rng.below(4) == 0):
            continue
        d = {v} | {w for w in sorted(g.neighbors(v))
                   if grow and w not in taken and rng.below(3) == 0}
        taken |= d
        d_sets.append(frozenset(d))
    return g, s, d_sets, rng.below(3)


def _attached_hypotheses(g, s, d_sets, n_avoid):
    """``n_avoid`` raised to the least value the anticomplete count allows,
    or ``None`` when another structural hypothesis of the search fails."""
    s_mask = mask_of(s)
    masks = [mask_of(d) for d in d_sets]
    free = [m for m in masks if not m & s_mask]
    for m in masks:
        if m & s_mask and any(not c & s_mask for c in g.components_in(m)):
            return None
        if not m & s_mask and g.reach(m & -m, m) != m:
            return None
        nb = g.neighborhood(m)
        n_avoid = max(n_avoid, sum(1 for f in free if f != m and not nb & f))
    return n_avoid if len(d_sets) >= n_avoid + 2 * len(s) else None


def _outcome(fn, *args):
    try:
        return "ok", sorted(sorted(f) for f in fn(*args))
    except MinorforgeError as e:
        ev = getattr(e, "evidence", None)
        return type(e).__name__, str(e), ev and (sorted(ev.a), sorted(ev.b))


def _split_corpus():
    """The 700 seeded split instances, less those whose structural
    hypotheses fail: (index, host, attachment, branch sets, avoidance
    count, whether an avoiding separation breaks the hypothesis)."""
    for i in range(700):
        rng = Rng(derive_seed(43, i))
        g, s, d_sets, n_avoid = (_planted_split_instance if i % 3 else _random_split_instance)(rng)
        n_avoid = _attached_hypotheses(g, s, d_sets, n_avoid)
        if n_avoid is None:
            continue
        avoidable = [d for d in d_sets if not d & s]
        blocked = find_separation_avoiding(g, s, len(s), avoidable, n_avoid) is not None
        yield i, g, s, d_sets, n_avoid, blocked


def test_mask_workspace_matches_the_dict_workspace(monkeypatch):
    """The contraction/split loop on host-id bitmasks against a verbatim
    copy of the loop on a dict of sets, run checked as the library runs
    it: the same fragments, or the same error.  Two thirds of the
    instances plant a branch set holding two roots behind a layer of t
    vertices, which is what reaching the split takes; where that layer has
    t - 1 vertices the separation hypothesis fails, and a contradiction
    the loop meets there is a bug to both, reported the same way."""
    import minorforge.rooted as rooted

    splits, split = Counter(), rooted._split

    def counted(*args):
        splits["split"] += 1
        return split(*args)

    monkeypatch.setattr(rooted, "_split", counted)
    outcomes = Counter()
    for i, g, s, d_sets, n_avoid, blocked in _split_corpus():
        got = _outcome(rooted._attached_fragments, g, mask_of(s), d_sets, n_avoid)
        expect = _outcome(rooted_ref.attached_fragments, g, s, d_sets, n_avoid, False)
        assert got == expect, i
        outcomes[got[0], blocked] += 1
    # on this corpus the loop meets a contradiction exactly where the
    # hypothesis fails
    assert outcomes == {("ok", False): 364, ("InternalInfeasibleError", True): 86}, outcomes
    assert splits["split"] >= 50, splits


def test_attached_search_certifies_or_blames_the_hypothesis():
    """On the split corpus the public search returns an attached, valid
    model whenever the separation hypothesis holds; where it fails, the
    search refuses the host up front with an avoiding separation of the
    host as evidence, which re-checks, never with a bug or a search cap."""
    held = failed = 0
    for i, g, s, d_sets, n_avoid, blocked in _split_corpus():
        if blocked:
            with pytest.raises(HypothesisViolatedError) as info:
                attached_model_search(g, s, d_sets, n_avoid)
            sep = info.value.evidence
            assert sep.violations(g) == [], i
            assert set(s) <= sep.a and sep.order < len(s), i
            avoided = [d for d in d_sets if not d & set(s) and d <= sep.b - sep.a]
            assert len(avoided) > n_avoid, i
            failed += 1
            continue
        model = attached_model_search(g, s, d_sets, n_avoid)
        report = require_valid(model)
        assert len(model.fragments) == len(d_sets) - len(s), i
        assert is_attached_to(model, s), i
        assert complement_max_degree(report.pattern) <= n_avoid, i
        held += 1
    assert (held, failed) == (364, 86)
