"""Test-only references, each kept verbatim.

``find_linkage`` as it was before its search became one per-call state:
nested ``solve`` and ``dfs`` closures, ``dfs`` handing its result back
through ``nonlocal``.  ``test_paths.py`` requires the library to return the
same family or ``None``, spend the same budget, and run out at the same
budgets.

``knit_connect`` and its helper ``_pick_fresh`` as they were before
``knit_connect`` grew one vertex mask per part.  They pick fresh neighbours
into a banned set, keep the picks in two dicts, and check the finished sets
pairwise by hand.  ``test_paths.py`` requires the library to return the
same sets, or raise the same error with the same message.
"""

from __future__ import annotations

from minorforge.config import LINKAGE_PAIRS_CAP, LINKAGE_VERTEX_CAP, SEARCH_NODES
from minorforge.errors import (
    Budget,
    HypothesisViolatedError,
    LinkageFailedError,
    NeighborsUnavailableError,
    TooLargeError,
    check_internal,
)
from minorforge.graph import Graph, induced_subgraph, mask_of, mask_vertices
from minorforge.paths import PathFamily, _check_pair_convention, _tuples, require_paths


def find_linkage(g: Graph, pairs) -> PathFamily | None:
    """Exact search for disjoint paths joining each pair, or ``None`` when
    provably no linkage exists.  Endpoints must be distinct across pairs
    (``s_i == t_i`` is allowed and yields a one-vertex path)."""
    pairs = _tuples(pairs)
    if len(pairs) > LINKAGE_PAIRS_CAP or g.n > LINKAGE_VERTEX_CAP:
        raise TooLargeError("instance beyond the exact-search caps")
    _check_pair_convention(pairs)
    endpoint_mask = mask_of(g.vertex_set([v for p in pairs for v in p]))
    k = len(pairs)
    full = (1 << g.n) - 1
    budget = Budget(SEARCH_NODES, TooLargeError, "linkage search budget exhausted")
    failed: set[tuple[int, int]] = set()

    def pair_feasible(idx: int, used: int) -> bool:
        si, ti = pairs[idx]
        if used >> si & 1 or used >> ti & 1:
            return False
        if si == ti:
            return True
        block = used | (endpoint_mask & ~(1 << si) & ~(1 << ti))
        return bool(g.reach(1 << si, full & ~block) >> ti & 1)

    def solve(idx: int, used: int) -> list[tuple[int, ...]] | None:
        if idx == k:
            return []
        key = (idx, used)
        if key in failed:
            return None
        for later in range(idx, k):
            if not pair_feasible(later, used):
                failed.add(key)
                return None
        si, ti = pairs[idx]
        if si == ti:
            rest = solve(idx + 1, used | (1 << si))
            if rest is not None:
                return [(si,)] + rest
            failed.add(key)
            return None
        block = used | (endpoint_mask & ~(1 << si) & ~(1 << ti))

        result: list[tuple[int, ...]] | None = None

        def dfs(cur: int, path: list[int], path_mask: int) -> bool:
            nonlocal result
            budget.spend()
            # ti is never blocked: pair_feasible checked it is unused
            for w in mask_vertices(g.neighbor_bits(cur) & ~(block | path_mask)):
                wb = 1 << w
                if w == ti:
                    rest = solve(idx + 1, used | path_mask | wb)
                    if rest is not None:
                        result = [tuple(path + [w])] + rest
                        return True
                else:
                    path.append(w)
                    if dfs(w, path, path_mask | wb):
                        return True
                    path.pop()
            return False

        if dfs(si, [si], 1 << si):
            return result
        failed.add(key)
        return None

    solution = solve(0, 0)
    if solution is None:
        return None
    fam = PathFamily(solution, "linkage", pairs=tuple(pairs))
    return require_paths(g, fam)



def _pick_fresh(g: Graph, u: int, banned: set[int], count: int) -> list[int]:
    picked = []
    for w in mask_vertices(g.neighbor_bits(u)):
        if w not in banned:
            picked.append(w)
            banned.add(w)
            if len(picked) == count:
                return picked
    raise NeighborsUnavailableError(
        f"vertex {u} lacks {count} unclaimed neighbors outside the working set"
    )


def knit_connect(g: Graph, s, parts) -> list[frozenset[int]]:
    """Connected, pairwise disjoint vertex sets, one per part of the given
    partition of ``s``, each containing its part and avoiding every other
    part.  Singleton parts map to themselves; larger parts get two fresh
    neighbors per vertex chained by one linkage found outside ``s``."""
    s = g.vertex_set(s)
    parts = _tuples(parts)
    members = frozenset().union(*map(g.vertex_set, parts))
    if len(members) != sum(map(len, parts)) or members != s or not all(parts):
        raise HypothesisViolatedError("parts must partition s")
    banned = set(s)
    first_nbr: dict[int, int] = {}
    second_nbr: dict[int, int] = {}
    multi = [p for p in parts if len(p) >= 2]
    for part in multi:
        for u in part:
            a, b = _pick_fresh(g, u, banned, 2)
            first_nbr[u] = a
            second_nbr[u] = b
    link_pairs: list[tuple[int, int]] = []
    owner: list[int] = []
    for pi, part in enumerate(parts):
        if len(part) >= 2:
            for u, w in zip(part, part[1:]):
                link_pairs.append((second_nbr[u], first_nbr[w]))
                owner.append(pi)
    # every pick is fresh and distinct, and the links start at second_nbr
    # of all but a part's last vertex and end at first_nbr of all but its first
    unused_fresh = {v for part in multi for v in (first_nbr[part[0]], second_nbr[part[-1]])}
    keep = sorted(set(range(g.n)) - s - unused_fresh)
    sub, old_of_new = induced_subgraph(g, keep)
    new_of_old = {v: i for i, v in enumerate(old_of_new)}
    sub_pairs = [(new_of_old[a], new_of_old[b]) for a, b in link_pairs]
    linked = find_linkage(sub, sub_pairs)
    if linked is None:
        raise LinkageFailedError("no disjoint connectors exist outside s")
    out: list[set[int]] = [set(p) for p in parts]
    for pi, part in enumerate(parts):
        if len(part) >= 2:
            for u in part:
                out[pi].add(first_nbr[u])
                out[pi].add(second_nbr[u])
    for path, pi in zip(linked.paths, owner):
        out[pi].update(old_of_new[x] for x in path)
    sets = [frozenset(c) for c in out]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            check_internal(not sets[i] & sets[j], "knit sets must be disjoint")
    for part, c in zip(parts, sets):
        mask = mask_of(c)
        check_internal(set(part) <= c, "knit set must contain its part")
        check_internal(g.reach(mask & -mask, mask) == mask, "knit set must be connected")
    return sets
