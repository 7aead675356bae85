"""Disjoint-path tools with certificates: Menger duals, doubled families,
exact linkage search, knit construction, ordered paths, and containers."""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import two_coloring
from .config import active_caps
from .errors import (
    ConstructionFailedError,
    DisconnectedHostError,
    HypothesisViolatedError,
    InfeasibleError,
    InternalInfeasibleError,
    LinkageFailedError,
    NeighborsUnavailableError,
    TooLargeError,
    UnknownVertexError,
    check_internal,
)
from .flow import SetFlow
from .graph import Graph, induced_subgraph, mask_of


@dataclass(frozen=True)
class Separation:
    """A two-sided cover (a, b) of a host: a ∪ b = V and no edge crosses
    from a∖b to b∖a.  The shared part a ∩ b is the cutset."""

    a: frozenset[int]
    b: frozenset[int]

    def __init__(self, a, b):
        object.__setattr__(self, "a", frozenset(a))
        object.__setattr__(self, "b", frozenset(b))

    @property
    def order(self) -> int:
        return len(self.a & self.b)

    def violations(self, g: Graph) -> list[str]:
        out = []
        if self.a | self.b != frozenset(range(g.n)):
            out.append("sides do not cover the host")
        left = self.a - self.b
        right_bits = mask_of(self.b - self.a)
        for v in left:
            if 0 <= v < g.n and g.neighbor_bits(v) & right_bits:
                out.append(f"edge crosses the separation at {v}")
                break
        return out


@dataclass(frozen=True)
class PathFamily:
    """Vertex paths plus the endpoint contract they claim to satisfy.

    kind "between": disjoint paths from s to t, no internal vertex in s | t.
    kind "doubled": paths pairwise sharing nothing outside s, each s-vertex
    the endpoint of exactly two.
    kind "linkage": path i runs from pairs[i][0] to pairs[i][1], all paths
    fully disjoint.
    """

    paths: tuple[tuple[int, ...], ...]
    kind: str
    s: frozenset[int] | None = None
    t: frozenset[int] | None = None
    pairs: tuple[tuple[int, int], ...] | None = None

    def __init__(self, paths, kind, s=None, t=None, pairs=None):
        object.__setattr__(self, "paths", tuple(tuple(p) for p in paths))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s", None if s is None else frozenset(s))
        object.__setattr__(self, "t", None if t is None else frozenset(t))
        object.__setattr__(
            self, "pairs", None if pairs is None else tuple(tuple(p) for p in pairs)
        )

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for p in self.paths:
            out.update(p)
        return frozenset(out)


def audit_path_family(g: Graph, fam: PathFamily) -> list[str]:
    """Every contract violation in the family, as human-readable strings.
    The single auditor every construction in this package runs through."""
    out: list[str] = []
    for i, p in enumerate(fam.paths):
        if not p:
            out.append(f"path {i} is empty")
            continue
        if any(not (0 <= v < g.n) for v in p):
            out.append(f"path {i} leaves the host")
            continue
        if len(set(p)) != len(p):
            out.append(f"path {i} repeats a vertex")
        for x, y in zip(p, p[1:]):
            if not g.has_edge(x, y):
                out.append(f"path {i} uses the non-edge {x},{y}")
                break
    if out:
        return out
    if fam.kind == "between":
        assert fam.s is not None and fam.t is not None
        seen: set[int] = set()
        for i, p in enumerate(fam.paths):
            if p[0] not in fam.s:
                out.append(f"path {i} does not start in s")
            if p[-1] not in fam.t:
                out.append(f"path {i} does not end in t")
            if any(v in fam.s or v in fam.t for v in p[1:-1]):
                out.append(f"path {i} passes through s or t internally")
            if seen & set(p):
                out.append(f"path {i} shares a vertex with an earlier path")
            seen.update(p)
    elif fam.kind == "doubled":
        assert fam.s is not None and fam.t is not None
        starts: dict[int, int] = {}
        for i, p in enumerate(fam.paths):
            if p[0] not in fam.s:
                out.append(f"path {i} does not start in s")
            else:
                starts[p[0]] = starts.get(p[0], 0) + 1
            if p[-1] not in fam.t:
                out.append(f"path {i} does not end in t")
            if any(v in fam.s or v in fam.t for v in p[1:-1]):
                out.append(f"path {i} passes through s or t internally")
        for i, p in enumerate(fam.paths):
            for j in range(i + 1, len(fam.paths)):
                shared = set(p) & set(fam.paths[j]) - fam.s
                if shared:
                    out.append(
                        f"paths {i},{j} share vertex {min(shared)} outside s"
                    )
        for v in fam.s:
            if starts.get(v, 0) != 2:
                out.append(f"s-vertex {v} starts {starts.get(v, 0)} paths, not 2")
    elif fam.kind == "linkage":
        assert fam.pairs is not None
        if len(fam.paths) != len(fam.pairs):
            out.append("path count differs from pair count")
            return out
        seen = set()
        for i, p in enumerate(fam.paths):
            si, ti = fam.pairs[i]
            if p[0] != si or p[-1] != ti:
                out.append(f"path {i} does not join its declared pair")
            if seen & set(p):
                out.append(f"path {i} shares a vertex with an earlier path")
            seen.update(p)
    else:
        out.append(f"unknown contract kind {fam.kind!r}")
    return out


def require_paths(g: Graph, fam: PathFamily) -> PathFamily:
    problems = audit_path_family(g, fam)
    if problems:
        raise InternalInfeasibleError(
            "constructed path family breaks its contract: " + problems[0]
        )
    return fam


def _check_sets(g: Graph, *sets) -> None:
    for vs in sets:
        for v in vs:
            g.check_vertex(v)


def _separation_from_cut(g: Graph, s, cut) -> Separation:
    cut = set(cut)
    reach = set(cut)
    stack = [v for v in s if v not in cut]
    reach.update(stack)
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in reach and w not in cut:
                reach.add(w)
                stack.append(w)
    a = reach
    b = (set(range(g.n)) - a) | cut
    return Separation(a, b)


def menger(g: Graph, s, t, k: int):
    """Either ``k`` disjoint paths between the sets ``s`` and ``t`` (no
    internal vertex in ``s | t``) or a separation of order below ``k`` with
    ``s`` inside one side and ``t`` inside the other.  Exactly one of the
    two is returned."""
    if k < 0:
        raise ValueError("path count must be nonnegative")
    s = frozenset(s)
    t = frozenset(t)
    _check_sets(g, s, t)
    if k == 0:
        return PathFamily((), "between", s=s, t=t)
    flow = SetFlow(g, s, t)
    if flow.run(limit=k) >= k:
        fam = PathFamily(flow.paths(), "between", s=s, t=t)
        return require_paths(g, fam)
    cut = flow.cut_vertices()
    sep = _separation_from_cut(g, s, cut)
    check_internal(sep.order < k, "Menger cut is too large")
    check_internal(s <= sep.a and t <= sep.b, "Menger cut does not separate s from t")
    check_internal(not sep.violations(g), "Menger cut is not a separation")
    return sep


def doubled_menger(g: Graph, z, t, budget: int) -> PathFamily:
    """2|z| paths from ``z`` to ``t`` pairwise sharing no vertex outside
    ``z``, each z-vertex starting exactly two.  Realized by giving each
    z-vertex capacity two in the flow network.  Raises
    :class:`InfeasibleError` carrying the dual separation otherwise."""
    z = frozenset(z)
    t = frozenset(t)
    _check_sets(g, z, t)
    if budget != 2 * len(z):
        raise HypothesisViolatedError("budget must be twice the source count")
    if z & t:
        raise HypothesisViolatedError("doubled sources must avoid the targets")
    flow = SetFlow(g, z, t, source_cap=2)
    if flow.run(limit=budget) >= budget:
        fam = PathFamily(flow.paths(), "doubled", s=z, t=t)
        return require_paths(g, fam)
    cut = flow.cut_vertices()
    sep = _separation_from_cut(g, z, cut)
    weighted = 2 * len(sep.a & sep.b & z) + len((sep.a & sep.b) - z)
    check_internal(weighted < budget, "doubled cut is too large")
    raise InfeasibleError(
        f"only {flow.value} of {budget} doubled paths exist", separation=sep
    )


def combine_redundant(g: Graph, fam1: PathFamily, fam2: PathFamily) -> PathFamily:
    """Merge two doubled families aimed at the same targets into
    ``|s1| + |s2|`` fully disjoint paths from ``s1 | s2`` to the targets,
    by rerunning the set-flow inside the union of the two families."""
    for fam in (fam1, fam2):
        if fam.kind != "doubled":
            raise HypothesisViolatedError("both families must be doubled")
        problems = audit_path_family(g, fam)
        if problems:
            raise HypothesisViolatedError(
                "family breaks its contract: " + problems[0]
            )
    if fam1.t != fam2.t:
        raise HypothesisViolatedError("families aim at different targets")
    s1, s2, t = fam1.s, fam2.s, fam1.t
    if s1 & s2:
        raise HypothesisViolatedError("source sets overlap")
    if (s1 | s2) & t:
        raise HypothesisViolatedError("sources must avoid the targets")
    if fam1.vertices() & s2 or fam2.vertices() & s1:
        raise HypothesisViolatedError(
            "each family must avoid the other family's sources"
        )
    union_edges = set()
    for fam in (fam1, fam2):
        for p in fam.paths:
            for x, y in zip(p, p[1:]):
                union_edges.add((min(x, y), max(x, y)))
    union = Graph(g.n, sorted(union_edges))
    got = menger(union, s1 | s2, t, len(s1) + len(s2))
    if isinstance(got, Separation):
        raise InternalInfeasibleError(
            "redundant combination must be feasible on the union"
        )
    return require_paths(g, got)


def _valid_pair_convention(pairs) -> str | None:
    k = len(pairs)
    for i in range(k):
        si, ti = pairs[i]
        for j in range(k):
            if i != j:
                sj, tj = pairs[j]
                if si == sj or ti == tj or si == tj:
                    return f"pairs {i},{j} collide"
    return None


def find_linkage(g: Graph, pairs) -> PathFamily | None:
    """Exact search for disjoint paths joining each pair, or ``None`` when
    provably no linkage exists.  Endpoints must be distinct across pairs
    (``s_i == t_i`` is allowed and yields a one-vertex path)."""
    caps = active_caps()
    pairs = [tuple(p) for p in pairs]
    if len(pairs) > caps.linkage_k or g.n > caps.linkage_n:
        raise TooLargeError("instance beyond the exact-search caps")
    for si, ti in pairs:
        g.check_vertex(si)
        g.check_vertex(ti)
    problem = _valid_pair_convention(pairs)
    if problem:
        raise HypothesisViolatedError(problem)
    k = len(pairs)
    endpoint_mask = 0
    for si, ti in pairs:
        endpoint_mask |= (1 << si) | (1 << ti)
    budget = [caps.search_nodes]
    failed: set[tuple[int, int]] = set()

    def pair_feasible(idx: int, used: int) -> bool:
        si, ti = pairs[idx]
        if used >> si & 1 or used >> ti & 1:
            return False
        if si == ti:
            return True
        block = used | (endpoint_mask & ~(1 << si) & ~(1 << ti))
        seen = 1 << si
        stack = [si]
        while stack:
            u = stack.pop()
            if u == ti:
                return True
            for w in g.neighbors(u):
                wb = 1 << w
                if not seen & wb and (w == ti or not block & wb):
                    seen |= wb
                    stack.append(w)
        return False

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
            budget[0] -= 1
            if budget[0] <= 0:
                raise TooLargeError("linkage search budget exhausted")
            for w in sorted(g.neighbors(cur)):
                wb = 1 << w
                if w == ti:
                    rest = solve(idx + 1, used | path_mask | wb)
                    if rest is not None:
                        result = [tuple(path + [w])] + rest
                        return True
                elif not (block | path_mask) & wb:
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
    for w in sorted(g.neighbors(u)):
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
    s = frozenset(s)
    _check_sets(g, s)
    parts = [tuple(p) for p in parts]
    flat = [v for p in parts for v in p]
    if len(set(flat)) != len(flat) or set(flat) != s or any(not p for p in parts):
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
    used_endpoints = {v for pair in link_pairs for v in pair}
    unused_fresh = {
        v
        for part in multi
        for v in (first_nbr[part[0]], second_nbr[part[-1]])
        if v not in used_endpoints
    }
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
            assert not sets[i] & sets[j], "knit sets must be disjoint"
    for part, c in zip(parts, sets):
        assert set(part) <= c
        assert _connected_set(g, c), "knit set must be connected"
    return sets


def _connected_set(g: Graph, vs) -> bool:
    vs = set(vs)
    if not vs:
        return False
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def ordered_path_through(g: Graph, sequence) -> PathFamily:
    """One path visiting the given distinct vertices in the given order.
    Adjacent consecutive vertices ride the direct edge; the rest are joined
    through fresh neighbors by an exact linkage outside the sequence."""
    seq = [int(v) for v in sequence]
    for v in seq:
        g.check_vertex(v)
    if len(set(seq)) != len(seq) or not seq:
        raise HypothesisViolatedError("sequence must be nonempty and distinct")
    if len(seq) == 1:
        return PathFamily(((seq[0],),), "linkage", pairs=((seq[0], seq[0]),))
    banned = set(seq)
    gaps = [
        j for j in range(len(seq) - 1) if not g.has_edge(seq[j], seq[j + 1])
    ]
    exit_nbr: dict[int, int] = {}
    entry_nbr: dict[int, int] = {}
    for j in gaps:
        (exit_nbr[j],) = _pick_fresh(g, seq[j], banned, 1)
        (entry_nbr[j],) = _pick_fresh(g, seq[j + 1], banned, 1)
    segments: dict[int, list[int]] = {}
    if gaps:
        keep = sorted(set(range(g.n)) - set(seq))
        sub, old_of_new = induced_subgraph(g, keep)
        new_of_old = {v: i for i, v in enumerate(old_of_new)}
        sub_pairs = [(new_of_old[exit_nbr[j]], new_of_old[entry_nbr[j]]) for j in gaps]
        linked = find_linkage(sub, sub_pairs)
        if linked is None:
            raise LinkageFailedError(
                "no disjoint connectors visit the sequence in order"
            )
        for j, path in zip(gaps, linked.paths):
            segments[j] = [old_of_new[x] for x in path]
    full: list[int] = [seq[0]]
    for j in range(len(seq) - 1):
        full.extend(segments.get(j, []))
        full.append(seq[j + 1])
    fam = PathFamily((tuple(full),), "linkage", pairs=((seq[0], seq[-1]),))
    require_paths(g, fam)
    positions = {v: i for i, v in enumerate(full)}
    assert all(
        positions[a] < positions[b] for a, b in zip(seq, seq[1:])
    ), "sequence order must be preserved"
    return fam


def _bfs_tree_extend(g: Graph, tree: set[int], targets: set[int]):
    """Shortest path from the current tree to the nearest target; ties break
    toward lower vertex ids via BFS insertion order."""
    parent: dict[int, int] = {v: -1 for v in tree}
    queue = sorted(tree)
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if u in targets:
            path = []
            while u != -1:
                path.append(u)
                u = parent[u]
            return path
        for w in sorted(g.neighbors(u)):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    return None


def _odd_cycle(g: Graph, vs: list[int]) -> list[int] | None:
    """Vertices of one odd cycle inside the induced subgraph on ``vs``, or
    ``None`` when that subgraph is bipartite."""
    vset = set(vs)
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in sorted(vset):
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in sorted(g.neighbors(u)):
                if w not in vset:
                    continue
                if w not in color:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    up: list[int] = []
                    node: int | None = u
                    while node is not None:
                        up.append(node)
                        node = parent[node]
                    wp: list[int] = []
                    node = w
                    while node is not None:
                        wp.append(node)
                        node = parent[node]
                    shared = set(up) & set(wp)
                    cut_u = next(i for i, x in enumerate(up) if x in shared)
                    cut_w = next(i for i, x in enumerate(wp) if x in shared)
                    return up[: cut_u + 1] + wp[:cut_w][::-1]
    return None


def container(g: Graph, s):
    """A connected induced subgraph ``h`` around ``s`` plus a blocker
    ``s_prime`` with ``s ⊆ s_prime ⊆ h``, ``|s_prime| ≤ 3|s|``, and
    ``g[h ∖ s_prime]`` two-colorable."""
    s = frozenset(s)
    _check_sets(g, s)
    if not s:
        raise UnknownVertexError("container needs at least one vertex")
    if not g.is_connected():
        raise DisconnectedHostError("container requires a connected host")
    if len(s) == 1:
        only = tuple(s)
        return only, only
    tree = {min(s)}
    tree_adj: dict[int, set[int]] = {min(s): set()}
    remaining = set(s) - tree
    while remaining:
        path = _bfs_tree_extend(g, tree, remaining)
        assert path is not None, "connected host must reach every target"
        path = path[::-1]  # tree end first
        for x, y in zip(path, path[1:]):
            tree_adj.setdefault(x, set()).add(y)
            tree_adj.setdefault(y, set()).add(x)
            tree.add(y)
        remaining.discard(path[-1])
    changed = True
    while changed:
        changed = False
        for v in sorted(tree):
            if v not in s and len(tree_adj[v]) == 1:
                (w,) = tree_adj[v]
                tree_adj[w].discard(v)
                del tree_adj[v]
                tree.discard(v)
                changed = True
    branch = {v for v in tree if len(tree_adj[v]) >= 3}
    s_prime = set(s) | branch
    h = sorted(tree)
    while True:
        rest = [v for v in h if v not in s_prime]
        cycle = _odd_cycle(g, rest)
        if cycle is None:
            break
        if len(s_prime) >= 3 * len(s):
            raise ConstructionFailedError(
                "could not reach a two-colorable remainder within the size cap"
            )
        rest_set = set(rest)
        pick = max(
            cycle,
            key=lambda v: (sum(1 for w in g.neighbors(v) if w in rest_set), -v),
        )
        s_prime.add(pick)
    rest = [v for v in h if v not in s_prime]
    sub, _ = induced_subgraph(g, rest)
    assert sub.n == 0 or two_coloring(sub) is not None
    assert len(s_prime) <= 3 * len(s)
    return tuple(sorted(s_prime)), tuple(h)
