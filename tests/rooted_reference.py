"""Test-only reference: the attached-model search's contraction/split loop
as it was on a dict-of-sets workspace, before it moved onto host-id
bitmasks.  ``_class_map``, ``_snapshot``, ``_drop_s_edges``, ``_contract``,
``_avoiding_separation_now``, ``_solve``, ``_split`` and ``_endgame`` are
kept verbatim; ``attached_fragments`` repeats the workspace set-up and the
fragment expansion of ``attached_model_search`` and passes ``None`` for
the ``caps`` argument, which the loop never reads.  ``test_rooted.py``
runs this code checked (``trusted=False``), as the library runs its loop,
and requires the library to return the same fragments, or to raise the
same error, as this code.
"""

from __future__ import annotations

from minorforge.errors import (
    HypothesisViolatedError,
    InternalInfeasibleError,
    check_internal,
)
from minorforge.graph import Graph, mask_vertices
from minorforge.paths import Separation, menger
from minorforge.rooted import find_separation_avoiding


def attached_fragments(g: Graph, s, d_sets, n_avoid: int, trusted: bool):
    """The fragments (host vertex sets) the loop builds for branch sets
    ``d_sets`` attached at ``s``, before any certificate check."""
    m = len(d_sets)
    adj = {v: set(mask_vertices(g.neighbor_bits(v))) for v in range(g.n)}
    dlab: dict[int, int | None] = {v: None for v in range(g.n)}
    for i, d in enumerate(d_sets):
        for v in d:
            dlab[v] = i
    expand = {v: frozenset((v,)) for v in range(g.n)}
    frag_ids = _solve(
        adj, dlab, set(s), expand, len(s), n_avoid, m, None,
        trusted=trusted,
    )
    return [frozenset().union(*(expand[i] for i in f)) for f in frag_ids]


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
