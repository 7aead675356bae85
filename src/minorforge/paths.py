"""Disjoint-path tools with certificates: Menger duals, exact linkage
search, and knit construction."""

from __future__ import annotations

from dataclasses import dataclass

from .config import LINKAGE_PAIRS_CAP, LINKAGE_VERTEX_CAP, SEARCH_NODES
from .errors import (
    Budget,
    HypothesisViolatedError,
    InternalInfeasibleError,
    LinkageFailedError,
    NeighborsUnavailableError,
    TooLargeError,
    check_count,
    check_internal,
)
from .flow import SetFlow
from .graph import Graph, induced_subgraph, mask_of, mask_vertices
from .model import MinorModel, validate_model


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
        if any(v.__class__ is not int or not 0 <= v < g.n for v in p):
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
        check_internal(fam.s is not None and fam.t is not None, "a between family needs s and t")
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
    elif fam.kind == "linkage":
        check_internal(fam.pairs is not None, "a linkage family needs its pairs")
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


def _separation_from_cut(g: Graph, s, cut) -> Separation:
    """Side ``a``: the cut plus what ``s`` reaches around it; side ``b``:
    the cut plus everything else."""
    full = (1 << g.n) - 1
    cut = mask_of(cut)
    a = g.reach(mask_of(s), full & ~cut) | cut
    return Separation(mask_vertices(a), mask_vertices(full & ~a | cut))


def menger(g: Graph, s, t, k: int):
    """Either ``k`` disjoint paths between the sets ``s`` and ``t`` (no
    internal vertex in ``s | t``) or a separation of order below ``k`` with
    ``s`` inside one side and ``t`` inside the other.  Exactly one of the
    two is returned."""
    check_count("the path count", k, 0)
    s, t = g.vertex_set(s), g.vertex_set(t)
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


def _tuples(items) -> list[tuple]:
    """Each item of ``items`` as a tuple.  HypothesisViolatedError names
    ``items`` when it is not iterable, else the first item that is not."""
    out, item = [], items  # the argument until the loop binds an item
    try:
        for item in items:
            out.append(tuple(item))
    except TypeError:
        raise HypothesisViolatedError(f"{item!r} is not iterable", evidence=item) from None
    return out


def _check_pair_convention(pairs: list[tuple]) -> None:
    """Raise HypothesisViolatedError unless every item of ``pairs`` is a
    pair and no endpoint recurs across pairs (``s_i == t_i`` is allowed)."""
    try:
        for i, (si, ti) in enumerate(pairs):
            for j, (sj, tj) in enumerate(pairs):
                if i != j and (si == sj or ti == tj or si == tj):
                    raise HypothesisViolatedError(f"pairs {i},{j} collide")
    except ValueError:  # the unpack of an item that is not a pair
        bad = next(p for p in pairs if len(p) != 2)
        raise HypothesisViolatedError(f"{bad} is not a pair", evidence=bad) from None


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
    # the two least free neighbours of each vertex of a larger part join
    # its blob; a link runs from one vertex's second pick to the next's first
    taken = mask_of(s)
    blobs = [mask_of(p) for p in parts]
    links: list[tuple[int, int]] = []
    owner: list[int] = []
    for pi, part in enumerate(parts):
        if len(part) < 2:
            continue
        for k, u in enumerate(part):
            free = g.neighbor_bits(u) & ~taken
            rest = free & free - 1
            if not rest:
                raise NeighborsUnavailableError(
                    f"vertex {u} lacks 2 unclaimed neighbors outside the working set"
                )
            first, second = free ^ rest, rest & -rest
            taken |= first | second
            blobs[pi] |= first | second
            if k:
                links.append((prev, first.bit_length() - 1))
                owner.append(pi)
            prev = second.bit_length() - 1
    # the links end at every pick but a part's very first and very last:
    # the linkage avoids s and those, in one renumbered subgraph
    ends = mask_of(v for link in links for v in link)
    keep = (1 << g.n) - 1 & ~taken | ends
    sub, old_of_new = induced_subgraph(g, mask_vertices(keep))
    linked = find_linkage(
        sub, [tuple((keep & (1 << v) - 1).bit_count() for v in link) for link in links]
    )
    if linked is None:
        raise LinkageFailedError("no disjoint connectors exist outside s")
    for path, pi in zip(linked.paths, owner):
        blobs[pi] |= mask_of(old_of_new[x] for x in path)
    sets = [frozenset(mask_vertices(b)) for b in blobs]
    check_internal(validate_model(MinorModel(g, sets)).valid,
                   "knit sets must be nonempty, disjoint and connected")
    check_internal(all(c.issuperset(p) for p, c in zip(parts, sets)),
                   "knit set must contain its part")
    return sets
