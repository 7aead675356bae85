"""Attached-model search: minors whose first fragments pair off with a given
attachment set, plus the avoiding-separation search that guards it.

The attached-model search contracts one workspace in place, indexed by host
vertex: ``bits[v]`` is v's neighbour mask (0 once v is contracted away or
dropped), ``label[v]`` its branch set or ``None``, ``expand[v]`` the host
vertices contracted into it, plus masks of the live and attachment vertices.
Flows run on ``Graph._from_masks`` of the workspace cut down to a live side,
on host ids, with the vertices off that side isolated.  They find the cuts
and paths that renumbering the side 0.. in ascending order would: that keeps
every ascending scan of the flow, ``reach`` and ``_separation_from_cut`` in
order, and none of them visits an isolated vertex outside the sources."""

from __future__ import annotations

import itertools
import math

from .config import SEARCH_NODES
from .connectivity import vertex_connectivity_with_cutset
from .errors import (
    HypothesisViolatedError,
    TooLargeError,
    check_count,
    check_internal,
    check_vertex_sets,
)
from .flow import SetFlow
from .graph import Graph, complement_max_degree, mask_of, mask_vertices
from .model import MinorModel, is_attached_to
from .paths import Separation, _separation_from_cut, menger


def _disjoint_sets(g: Graph, d_list, what: str) -> tuple[frozenset[int], ...]:
    """The sets of ``d_list``, each checked nonempty, in range and disjoint
    from the ones before it."""
    d_sets = check_vertex_sets(d_list)
    claimed: set[int] = set()
    for d in d_sets:
        if not d:
            raise HypothesisViolatedError(f"{what} must be nonempty")
        g.vertex_set(d)
        if claimed & d:
            raise HypothesisViolatedError(f"{what} must be disjoint")
        claimed |= d
    return d_sets


def find_separation_avoiding(g: Graph, s, t_order: int, d_list, n_avoid: int):
    """A separation (a, b) with ``s ⊆ a``, order below ``t_order``, and more
    than ``n_avoid`` of the given disjoint sets inside ``b ∖ a``, or
    ``None`` when no such separation exists.  Decided exactly: for each
    (n_avoid+1)-subfamily, a set-flow with uncuttable targets finds the
    smallest cut keeping ``s`` away from the subfamily's union."""
    check_count("the separation order", t_order, 0)
    check_count("the avoidance count", n_avoid, 0)
    s = g.vertex_set(s)
    d_sets = _disjoint_sets(g, d_list, "avoidable sets")
    k = n_avoid + 1
    if k > len(d_sets):
        return None
    if math.comb(len(d_sets), k) > SEARCH_NODES:
        raise TooLargeError("too many subfamilies to enumerate")
    smask = mask_of(s)
    d_masks = [mask_of(d) for d in d_sets]
    for combo in itertools.combinations(range(len(d_sets)), k):
        union = 0
        for i in combo:
            union |= d_masks[i]
        if smask & union:
            continue
        # every vertex of s next to the union lies in the cut of any such
        # separation (the forced-cut lemma in flow.py); with t_order of them
        # the capped flow would find no cut, so it is not built
        if (smask & g.neighborhood(union)).bit_count() >= t_order:
            continue
        flow = SetFlow(g, s, mask_vertices(union), uncuttable_targets=True)
        if flow.run(t_order) >= t_order:
            continue
        sep = _separation_from_cut(g, s, flow.cut_vertices())
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
# attached-model search: the proof-guided contraction/split loop


def _restrict(bits: list[int], side: int) -> list[int]:
    """The workspace's rows cut down to ``side``; a vertex off it gets 0."""
    return [b & side if side >> v & 1 else 0 for v, b in enumerate(bits)]


def _live_graph(bits: list[int], side: int) -> Graph:
    return Graph._from_masks(len(bits), _restrict(bits, side))


def _class_masks(label: list[int | None], alive: int) -> dict[int, int]:
    """Branch-set index -> mask of its live vertices."""
    classes: dict[int, int] = {}
    for v in mask_vertices(alive):
        if label[v] is not None:
            classes[label[v]] = classes.get(label[v], 0) | 1 << v
    return classes


def _contract(bits: list[int], label: list[int | None], keep: int, gone: int) -> None:
    """Merge ``gone`` into ``keep``: O(deg(gone)) row updates."""
    nb = bits[gone]
    for w in mask_vertices(nb & ~(1 << keep)):
        bits[w] = bits[w] & ~(1 << gone) | 1 << keep
    bits[keep] = (bits[keep] | nb) & ~(1 << keep | 1 << gone)
    bits[gone] = 0
    if label[keep] is None:
        label[keep] = label[gone]
    label[gone] = None


# the loop meeting an avoiding separation below the declared order: its
# callers' checks rule one out on the host, so this is a bug
_MET = "an avoiding separation below the declared order exists"


def _solve(bits, label, alive, s_mask, expand, t, n_avoid, m_total):
    """Fragments (masks of workspace vertices) of an attached model with
    ``m_total - t`` fragments, the first ``t`` each holding exactly one
    vertex of ``s_mask``.  Takes over ``bits`` and ``label``, and merges
    each contracted vertex into ``expand`` in place."""
    while True:
        for v in mask_vertices(s_mask):
            bits[v] &= ~s_mask
        classes = _class_masks(label, alive)
        free = alive & ~sum(classes.values())  # the classes are disjoint
        for v in mask_vertices(free & ~s_mask):
            if not bits[v]:
                alive ^= 1 << v
                free ^= 1 << v
        # the first edge uw, u < w in ascending order, whose ends are not in
        # two different branch sets
        cand = None
        for u in mask_vertices(alive):
            row = bits[u] >> (u + 1) << (u + 1)
            if label[u] is not None:
                row &= free | classes[label[u]]
            if row:
                cand = u, (row & -row).bit_length() - 1
                break
        if cand is None:
            break
        keep, gone = cand
        if s_mask >> gone & 1:
            keep, gone = gone, keep  # keep the attachment vertex if either is
        trial_bits, trial_label = list(bits), list(label)
        _contract(trial_bits, trial_label, keep, gone)
        trial_alive = alive & ~(1 << gone)
        d_list = [mask_vertices(cls) for _, cls in sorted(
            _class_masks(trial_label, trial_alive).items()) if not cls & s_mask]
        sep = find_separation_avoiding(_live_graph(trial_bits, trial_alive),
                                       mask_vertices(s_mask), t, d_list, n_avoid)
        if sep is None:
            bits, label, alive = trial_bits, trial_label, trial_alive
            expand[keep] |= expand[gone]
            continue
        # the sides as masks inside the live side, dropping the isolated
        # vertices off it
        a, b = mask_of(sep.a) & trial_alive, mask_of(sep.b) & trial_alive
        # the separation lives on the contracted graph: gone sits where keep does
        if a >> keep & 1:
            a |= 1 << gone
        if b >> keep & 1:
            b |= 1 << gone
        s_prime = a & b
        check_internal(
            s_prime >> keep & 1 and s_prime >> gone & 1 and s_prime.bit_count() == t, _MET
        )
        return _split(bits, label, alive, s_mask, expand, a, b, s_prime, t, n_avoid, m_total)
    return _endgame(bits, label, alive, s_mask, t, m_total)


def _split(bits, label, alive, s_mask, expand, a, b, s_prime, t, n_avoid, m_total):
    for v in mask_vertices(a & ~b):
        check_internal(not bits[v] & ~a, "separation pulled back with a crossing edge")
    check_internal(not s_mask & ~a, "attachment must sit inside the near side")
    got = menger(_live_graph(bits, a), mask_vertices(s_mask), mask_vertices(s_prime), t)
    check_internal(not isinstance(got, Separation), _MET)
    check_internal(
        set(_class_masks(label, b)) == set(_class_masks(label, alive)),
        "a branch set vanished across the split",
    )
    frags = _solve(_restrict(bits, b), label, b, s_prime, expand, t, n_avoid, m_total)
    for p in got.paths:
        hit = [i for i in range(t) if frags[i] >> p[-1] & 1]
        check_internal(len(hit) == 1, "every connector must land in one root fragment")
        frags[hit[0]] |= mask_of(p)
    return frags


def _endgame(bits, label, alive, s_mask, t, m_total):
    classes = _class_masks(label, alive)
    check_internal(len(classes) == m_total, "a branch set vanished before the finish")
    t_mask = alive & ~s_mask
    for v in mask_vertices(t_mask):
        check_internal(
            label[v] is not None and classes[label[v]] == 1 << v,
            "residue holds a vertex outside the singleton classes",
        )
    got = menger(_live_graph(bits, alive), mask_vertices(s_mask), mask_vertices(t_mask), t)
    check_internal(not isinstance(got, Separation), _MET)
    path_pairs = []
    for p in got.paths:
        check_internal(len(p) == 2, "finishing connectors must be single edges")
        path_pairs.append(p if s_mask >> p[0] & 1 else p[::-1])
    path_pairs.sort()
    frags = [1 << a | 1 << b for a, b in path_pairs]
    matched = mask_of(b for _, b in path_pairs)
    spare = sorted((label[v], v) for v in mask_vertices(t_mask & ~matched))
    need = m_total - 2 * t
    check_internal(len(spare) >= need, "not enough spare classes to finish")
    return frags + [1 << v for _, v in spare[:need]]


def _attached_fragments(g: Graph, s_mask: int, d_sets, n_avoid: int):
    """Run the contraction/split loop from the host on a fresh workspace;
    the fragments as host vertex sets."""
    label: list[int | None] = [None] * g.n
    for i, d in enumerate(d_sets):
        for v in d:
            label[v] = i
    expand = [1 << v for v in range(g.n)]
    frags = _solve(
        list(g._bits), label, (1 << g.n) - 1, s_mask, expand,
        s_mask.bit_count(), n_avoid, len(d_sets),
    )
    return [frozenset(x for v in mask_vertices(f) for x in mask_vertices(expand[v]))
            for f in frags]


def _attached_inputs(g: Graph, s, d_list, n_avoid: int):
    """The attachment set and the branch sets, checked against every
    hypothesis of the attached-model search but the separation one."""
    s = g.vertex_set(s)
    t = len(s)
    if t < 1:
        raise HypothesisViolatedError("the attachment set must be nonempty")
    d_sets = _disjoint_sets(g, d_list, "branch sets")
    m = len(d_sets)
    if m < n_avoid + 2 * t:
        raise HypothesisViolatedError(
            "need at least the avoidance count plus twice the attachment size"
        )
    i_idx = [i for i in range(m) if not d_sets[i] & s]
    d_masks = [mask_of(d) for d in d_sets]
    for i in i_idx:
        mask = d_masks[i]
        if g.reach(mask & -mask, mask) != mask:
            raise HypothesisViolatedError(
                f"set {i} avoids the attachment but is not connected"
            )
    s_mask = mask_of(s)
    for j in range(m):
        if j in i_idx:
            continue
        for comp in g.components_in(d_masks[j]):
            if not comp & s_mask:
                raise HypothesisViolatedError(
                    f"set {j} has a component missing the attachment"
                )
    # the sets are range-checked and disjoint, so a set is anticomplete to
    # another exactly when its neighbourhood misses that set's mask
    for j in range(m):
        reach = g.neighborhood(d_masks[j])
        count = sum(1 for i in i_idx if i != j and not reach & d_masks[i])
        if count > n_avoid:
            raise HypothesisViolatedError(
                f"set {j} is anticomplete to too many avoidable sets"
            )
    return s, d_sets


def _attached_model(g: Graph, s: frozenset[int], d_sets, n_avoid: int) -> MinorModel:
    """The loop's model on checked inputs, with its certificates checked."""
    fragments = _attached_fragments(g, mask_of(s), d_sets, n_avoid)
    model = MinorModel(g, fragments)
    check_internal(len(fragments) == len(d_sets) - len(s), "wrong fragment count")
    check_internal(is_attached_to(model, s), "attachment certificate failed")
    check_internal(
        complement_max_degree(model.pattern) <= n_avoid,
        "pattern complement degree certificate failed",
    )
    return model


def attached_model_search(g: Graph, s, d_list, n_avoid: int) -> MinorModel:
    """A minor model with ``len(d_list) - |s|`` fragments, the first ``|s|``
    each meeting ``s`` exactly once, whose pattern complement has maximum
    degree at most ``n_avoid``.  Checks that no separation of order below
    ``|s|`` keeps more than ``n_avoid`` of the sets missing ``s`` away from
    it (HypothesisViolatedError with the separation as evidence), then runs
    the contraction/split argument over the given branch sets."""
    check_count("the avoidance count", n_avoid, 0)
    s, d_sets = _attached_inputs(g, s, d_list, n_avoid)
    avoidable = [d for d in d_sets if not d & s]
    sep = find_separation_avoiding(g, s, len(s), avoidable, n_avoid)
    if sep is not None:
        raise HypothesisViolatedError(
            "an avoiding separation below the attachment order exists",
            evidence=sep,
        )
    return _attached_model(g, s, d_sets, n_avoid)


def rooted_from_minor(g: Graph, s, j_model: MinorModel, n_avoid: int) -> MinorModel:
    """Attached model derived from a social-enough minor: in an
    ``|s|``-connected host, a model with ``m`` fragments whose pattern
    complement has maximum degree ≤ ``n_avoid`` yields a model of
    ``m - |s|`` fragments attached to ``s`` with the same bound."""
    check_count("the avoidance count", n_avoid, 0)
    if j_model.host != g:
        raise HypothesisViolatedError("the model must live in the given host")
    pattern = j_model.pattern
    if complement_max_degree(pattern) > n_avoid:
        raise HypothesisViolatedError(
            "the pattern complement exceeds the degree bound"
        )
    s, d_sets = _attached_inputs(g, s, j_model.fragments, n_avoid)
    k, cutset = vertex_connectivity_with_cutset(g, len(s))
    if k < len(s):
        raise HypothesisViolatedError(
            f"host connectivity {k} is below the attachment size",
            evidence=cutset,
        )
    # a separation of order below |s| with s on its near side and a vertex
    # off it would be a cutset smaller than the connectivity, so the
    # avoiding-separation hypothesis holds and the loop runs unchecked
    return _attached_model(g, s, d_sets, n_avoid)
