"""Attached-model search: minors whose first fragments pair off with a given
attachment set, plus the avoiding-separation search that guards it."""

from __future__ import annotations

import itertools
import math

from .config import active_caps
from .connectivity import vertex_connectivity_with_cutset
from .errors import (
    HypothesisViolatedError,
    InternalInfeasibleError,
    InvalidModelError,
    TooLargeError,
    check_internal,
)
from .flow import SetFlow
from .graph import Graph, complement_max_degree
from .model import MinorModel, anticomplete, is_attached_to, require_valid
from .paths import Separation, _connected_set, _separation_from_cut, menger


def find_separation_avoiding(g: Graph, s, t_order: int, d_list, n_avoid: int):
    """A separation (a, b) with ``s ⊆ a``, order below ``t_order``, and more
    than ``n_avoid`` of the given disjoint sets inside ``b ∖ a``, or
    ``None`` when no such separation exists.  Decided exactly: for each
    (n_avoid+1)-subfamily, a set-flow with uncuttable targets finds the
    smallest cut keeping ``s`` away from the subfamily's union."""
    caps = active_caps()
    s = frozenset(s)
    for v in s:
        g.check_vertex(v)
    d_sets = [frozenset(d) for d in d_list]
    claimed: set[int] = set()
    for d in d_sets:
        if not d:
            raise HypothesisViolatedError("avoidable sets must be nonempty")
        for v in d:
            g.check_vertex(v)
        if claimed & d:
            raise HypothesisViolatedError("avoidable sets must be disjoint")
        claimed |= d
    if n_avoid < 0:
        raise HypothesisViolatedError("the avoidance count must be nonnegative")
    k = n_avoid + 1
    if k > len(d_sets):
        return None
    if math.comb(len(d_sets), k) > caps.search_nodes:
        raise TooLargeError("too many subfamilies to enumerate")
    for combo in itertools.combinations(range(len(d_sets)), k):
        union = frozenset().union(*(d_sets[i] for i in combo))
        if s & union:
            continue
        flow = SetFlow(g, s, union, uncuttable_targets=True)
        if flow.run(limit=t_order) >= t_order:
            continue
        cut = flow.cut_vertices()
        sep = _separation_from_cut(g, s, cut)
        check_internal(sep.order < t_order, "avoiding cut is too large")
        check_internal(s <= sep.a, "avoiding cut lost a source")
        check_internal(
            all(d_sets[i] <= sep.b - sep.a for i in combo),
            "avoiding cut leaves a chosen set on the near side",
        )
        check_internal(not sep.violations(g), "avoiding cut is not a separation")
        return sep
    return None


# ---------------------------------------------------------------------------
# attached-model search: proof-guided contraction loop with a fallback


def _class_map(dlab: dict[int, int | None]) -> dict[int, set[int]]:
    classes: dict[int, set[int]] = {}
    for v, lab in dlab.items():
        if lab is not None:
            classes.setdefault(lab, set()).add(v)
    return classes


def _snapshot(adj: dict[int, set[int]]):
    """Freeze a dict-adjacency into a Graph plus both id translations."""
    ids = sorted(adj)
    new_of_old = {v: i for i, v in enumerate(ids)}
    edges = [
        (new_of_old[u], new_of_old[w]) for u in ids for w in adj[u] if u < w
    ]
    return Graph(len(ids), edges), ids, new_of_old


def _drop_s_edges(adj: dict[int, set[int]], s_set: set[int]) -> None:
    for v in s_set:
        if v not in adj:
            continue
        for w in adj[v] & s_set:
            adj[v].discard(w)
            adj[w].discard(v)


def _contract(adj, dlab, keep: int, gone: int) -> None:
    for w in adj[gone]:
        if w != keep:
            adj[w].discard(gone)
            adj[w].add(keep)
            adj[keep].add(w)
    adj[keep].discard(gone)
    del adj[gone]
    if dlab[keep] is None:
        dlab[keep] = dlab[gone]
    del dlab[gone]


def _avoiding_separation_now(adj, dlab, s_set, t, n_avoid):
    """Run the avoiding-separation search on the current working graph;
    translate any hit back to working ids."""
    snap, ids, new_of_old = _snapshot(adj)
    classes = _class_map(dlab)
    d_trans = [
        frozenset(new_of_old[v] for v in cls)
        for lab, cls in sorted(classes.items())
        if not cls & s_set
    ]
    s_trans = frozenset(new_of_old[v] for v in s_set if v in new_of_old)
    sep = find_separation_avoiding(snap, s_trans, t, d_trans, n_avoid)
    if sep is None:
        return None
    return Separation({ids[x] for x in sep.a}, {ids[x] for x in sep.b})


def _solve(adj, dlab, s_set, expand, t, n_avoid, m_total, caps, trusted):
    """Fragments (sets of working vertex ids) of an attached model with
    ``m_total - t`` fragments, the first ``t`` each holding exactly one
    vertex of ``s_set``.

    ``trusted`` marks a level whose no-avoiding-separation hypothesis came
    from the caller unverified; a contradiction there is reported as the
    caller's hypothesis failing, while on checked levels it is a bug.
    """

    def blame(msg: str, evidence=None):
        if trusted:
            return HypothesisViolatedError(msg, evidence=evidence)
        return InternalInfeasibleError(msg)

    while True:
        _drop_s_edges(adj, s_set)
        for v in sorted(adj):
            if v not in s_set and dlab[v] is None and not adj[v]:
                del adj[v]
                del dlab[v]
        cand = None
        for u in sorted(adj):
            for w in sorted(adj[u]):
                if u < w and (
                    dlab[u] is None or dlab[w] is None or dlab[u] == dlab[w]
                ):
                    cand = (u, w)
                    break
            if cand:
                break
        if cand is None:
            break
        eu, ew = cand
        if ew in s_set:
            eu, ew = ew, eu
        keep, gone = eu, ew  # eu is the attachment vertex if either is
        trial_adj = {v: set(nb) for v, nb in adj.items()}
        trial_dlab = dict(dlab)
        _contract(trial_adj, trial_dlab, keep, gone)
        sep = _avoiding_separation_now(trial_adj, trial_dlab, s_set, t, n_avoid)
        if sep is None:
            _contract(adj, dlab, keep, gone)
            expand[keep] = expand[keep] | expand[gone]
            del expand[gone]
            continue
        a_ids = set(sep.a)
        b_ids = set(sep.b)
        if keep in a_ids:
            a_ids.add(gone)
        if keep in b_ids:
            b_ids.add(gone)
        s_prime = a_ids & b_ids
        if not (eu in s_prime and ew in s_prime and len(s_prime) == t):
            raise blame(
                "an avoiding separation below the declared order exists",
                evidence=Separation(a_ids, b_ids),
            )
        return _split(
            adj, dlab, s_set, expand, a_ids, b_ids, s_prime,
            t, n_avoid, m_total, caps, blame,
        )
    return _endgame(adj, dlab, s_set, t, m_total, blame)


def _split(adj, dlab, s_set, expand, a_ids, b_ids, s_prime,
           t, n_avoid, m_total, caps, blame):
    for v in a_ids - b_ids:
        check_internal(adj[v] <= a_ids, "separation pulled back with a crossing edge")
    check_internal(s_set <= a_ids, "attachment must sit inside the near side")
    sub_a = {v: adj[v] & a_ids for v in sorted(a_ids)}
    snap_a, ids_a, new_a = _snapshot(sub_a)
    got = menger(
        snap_a,
        frozenset(new_a[v] for v in s_set),
        frozenset(new_a[v] for v in s_prime),
        t,
    )
    if isinstance(got, Separation):
        raise blame(
            "an avoiding separation below the declared order exists",
            evidence=Separation(
                {ids_a[x] for x in got.a},
                {ids_a[x] for x in got.b} | b_ids,
            ),
        )
    link_paths = [tuple(ids_a[x] for x in p) for p in got.paths]
    sub_adj = {v: adj[v] & b_ids for v in sorted(b_ids)}
    sub_dlab = {v: dlab[v] for v in sorted(b_ids)}
    check_internal(
        set(sub_dlab.values()) - {None} == set(dlab.values()) - {None},
        "a branch set vanished across the split",
    )
    frags = _solve(
        sub_adj, sub_dlab, set(s_prime), expand, t, n_avoid, m_total, caps,
        trusted=False,
    )
    for p in link_paths:
        root = p[-1]
        hit = [i for i in range(t) if root in frags[i]]
        check_internal(len(hit) == 1, "every connector must land in one root fragment")
        frags[hit[0]] |= set(p)
    return frags


def _endgame(adj, dlab, s_set, t, m_total, blame):
    classes = _class_map(dlab)
    check_internal(len(classes) == m_total, "a branch set vanished before the finish")
    for v in sorted(adj):
        if v in s_set:
            continue
        lab = dlab[v]
        check_internal(
            lab is not None
            and not (classes[lab] & s_set)
            and len(classes[lab]) == 1,
            "residue holds a vertex outside the singleton classes",
        )
    t_ids = sorted(v for v in adj if v not in s_set)
    snap, ids, new_of_old = _snapshot(adj)
    got = menger(
        snap,
        frozenset(new_of_old[v] for v in s_set),
        frozenset(new_of_old[v] for v in t_ids),
        t,
    )
    if isinstance(got, Separation):
        raise blame(
            "an avoiding separation below the declared order exists",
            evidence=Separation(
                {ids[x] for x in got.a}, {ids[x] for x in got.b}
            ),
        )
    path_pairs = []
    for p in got.paths:
        check_internal(len(p) == 2, "finishing connectors must be single edges")
        a, b = ids[p[0]], ids[p[1]]
        if a not in s_set:
            a, b = b, a
        path_pairs.append((a, b))
    path_pairs.sort()
    frags: list[set[int]] = []
    matched: set[int] = set()
    for a, b in path_pairs:
        frags.append({a, b})
        matched.add(b)
    spare = sorted((dlab[v], v) for v in t_ids if v not in matched)
    need = m_total - 2 * t
    check_internal(len(spare) >= need, "not enough spare classes to finish")
    for _, v in spare[:need]:
        frags.append({v})
    return frags


def _pattern_ok(g: Graph, frags, n_avoid: int) -> bool:
    report = require_valid(MinorModel(g, frags))
    return complement_max_degree(report.pattern) <= n_avoid


def _attached_exhaustive(g: Graph, s_list, extra: int, n_avoid: int, caps):
    """Backtracking over assignments of non-attachment vertices to fragments;
    the safety net behind the proof-guided loop."""
    t = len(s_list)
    total = t + extra
    free = [v for v in range(g.n) if v not in set(s_list)]
    budget = [caps.search_nodes]
    assign: dict[int, int] = {}

    def leaf_check():
        frags = [{v} for v in s_list] + [set() for _ in range(extra)]
        for v, fi in assign.items():
            frags[fi].add(v)
        if any(not f for f in frags):
            return None
        if any(not _connected_set(g, f) for f in frags):
            return None
        fr = [frozenset(f) for f in frags]
        return fr if _pattern_ok(g, fr, n_avoid) else None

    def rec(idx: int):
        budget[0] -= 1
        if budget[0] <= 0:
            raise TooLargeError("attached-search budget exhausted")
        if idx == len(free):
            return leaf_check()
        v = free[idx]
        out = rec(idx + 1)
        if out is not None:
            return out
        for fi in range(total):
            assign[v] = fi
            out = rec(idx + 1)
            if out is not None:
                return out
        del assign[v]
        return None

    return rec(0)


def attached_model_search(
    g: Graph, s, d_list, n_avoid: int, *, skip_separation_check: bool = False
) -> MinorModel:
    """A minor model with ``len(d_list) - |s|`` fragments, the first ``|s|``
    each meeting ``s`` exactly once, whose pattern complement has maximum
    degree at most ``n_avoid``.  Runs the contraction/split argument over
    the given branch sets and falls back to exhaustive search on small
    hosts."""
    caps = active_caps()
    s = frozenset(s)
    for v in s:
        g.check_vertex(v)
    t = len(s)
    if t < 1:
        raise HypothesisViolatedError("the attachment set must be nonempty")
    d_sets = [frozenset(d) for d in d_list]
    m = len(d_sets)
    claimed: set[int] = set()
    for d in d_sets:
        if not d:
            raise HypothesisViolatedError("branch sets must be nonempty")
        for v in d:
            g.check_vertex(v)
        if claimed & d:
            raise HypothesisViolatedError("branch sets must be disjoint")
        claimed |= d
    if n_avoid < 0 or m < n_avoid + 2 * t:
        raise HypothesisViolatedError(
            "need at least the avoidance count plus twice the attachment size"
        )
    i_idx = [i for i in range(m) if not d_sets[i] & s]
    for i in i_idx:
        if not _connected_set(g, d_sets[i]):
            raise HypothesisViolatedError(
                f"set {i} avoids the attachment but is not connected"
            )
    for j in range(m):
        if j in i_idx:
            continue
        for comp in _components_within(g, d_sets[j]):
            if not comp & s:
                raise HypothesisViolatedError(
                    f"set {j} has a component missing the attachment"
                )
    for j in range(m):
        count = sum(
            1 for i in i_idx if i != j and anticomplete(g, d_sets[j], d_sets[i])
        )
        if count > n_avoid:
            raise HypothesisViolatedError(
                f"set {j} is anticomplete to too many avoidable sets"
            )
    if not skip_separation_check:
        sep = find_separation_avoiding(
            g, s, t, [d_sets[i] for i in i_idx], n_avoid
        )
        if sep is not None:
            raise HypothesisViolatedError(
                "an avoiding separation below the attachment order exists",
                evidence=sep,
            )
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    dlab: dict[int, int | None] = {v: None for v in range(g.n)}
    for i, d in enumerate(d_sets):
        for v in d:
            dlab[v] = i
    expand = {v: frozenset((v,)) for v in range(g.n)}
    try:
        frag_ids = _solve(
            adj, dlab, set(s), expand, t, n_avoid, m, caps,
            trusted=skip_separation_check,
        )
        fragments = [
            frozenset().union(*(expand[i] for i in f)) for f in frag_ids
        ]
        model = MinorModel(g, fragments)
        report = require_valid(model)
        check_internal(len(fragments) == m - t, "wrong fragment count")
        check_internal(is_attached_to(model, s), "attachment certificate failed")
        check_internal(
            complement_max_degree(report.pattern) <= n_avoid,
            "pattern complement degree certificate failed",
        )
        return model
    except (InternalInfeasibleError, InvalidModelError):
        if g.n > caps.attached_fallback:
            raise
        found = _attached_exhaustive(g, sorted(s), m - 2 * t, n_avoid, caps)
        if found is None:
            raise
        model = MinorModel(g, found)
        require_valid(model)
        check_internal(is_attached_to(model, s), "attachment certificate failed")
        return model


def _components_within(g: Graph, vs: frozenset[int]):
    left = set(vs)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in vs and w not in comp:
                    comp.add(w)
                    stack.append(w)
        left -= comp
        yield comp


def rooted_from_minor(g: Graph, s, j_model: MinorModel, n_avoid: int) -> MinorModel:
    """Attached model derived from a social-enough minor: in an
    ``|s|``-connected host, a model with ``m`` fragments whose pattern
    complement has maximum degree ≤ ``n_avoid`` yields a model of
    ``m - |s|`` fragments attached to ``s`` with the same bound."""
    s = frozenset(s)
    for v in s:
        g.check_vertex(v)
    t = len(s)
    if t < 1:
        raise HypothesisViolatedError("the attachment set must be nonempty")
    report = require_valid(j_model)
    if j_model.host != g:
        raise HypothesisViolatedError("the model must live in the given host")
    m = len(j_model.fragments)
    if complement_max_degree(report.pattern) > n_avoid:
        raise HypothesisViolatedError(
            "the pattern complement exceeds the degree bound"
        )
    if m < n_avoid + 2 * t:
        raise HypothesisViolatedError(
            "need at least the avoidance count plus twice the attachment size"
        )
    k, cutset = vertex_connectivity_with_cutset(g)
    if k < t:
        raise HypothesisViolatedError(
            f"host connectivity {k} is below the attachment size",
            evidence=cutset,
        )
    # this much connectivity leaves no small separation with a populated far
    # side, so the avoiding-separation hypothesis holds automatically
    return attached_model_search(
        g, s, list(j_model.fragments), n_avoid, skip_separation_check=True
    )
