"""Contraction-descent extraction: low-order minors with degree and
connectivity guarantees, dense-subset peeling, and k-connected subgraphs."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .config import active_caps
from .connectivity import vertex_connectivity_with_cutset
from .errors import (
    ExtractionFailedError,
    HypothesisViolatedError,
    InsufficientError,
    ParseError,
)
from .graph import Graph, average_degree, induced_subgraph, mask_of, mask_vertices
from .model import MinorModel, require_valid

_EXHAUSTIVE_ORDER = 12  # widest pattern the stuck-descent fallback will search


@dataclass(frozen=True)
class ExtractionTrace:
    """Auditable record of a descent: replaying the steps from the host
    reproduces the final model.  Each step is (kind, vertices, edge count of
    the pattern after the step); vertices are fragment representatives, a
    fragment's representative being its smallest host vertex."""

    steps: tuple[tuple[str, tuple[int, ...], int], ...]
    final_model: MinorModel


def replay_extraction(host: Graph, trace: ExtractionTrace) -> MinorModel:
    frag: dict[int, set[int]] = {v: {v} for v in range(host.n)}
    for i, (kind, verts, m_after) in enumerate(trace.steps):
        if kind not in ("delete", "contract"):
            raise ParseError(f"step {i}: unknown step kind {kind!r}")
        for r in verts:
            if r not in frag:
                raise ParseError(f"step {i}: no fragment has representative {r}")
        if kind == "delete":
            (r,) = verts
            del frag[r]
        else:
            a, b = verts
            keep, gone = (a, b) if a < b else (b, a)
            gone_mask = mask_of(frag[gone])
            if keep == gone or not any(
                host.neighbor_bits(v) & gone_mask for v in frag[keep]
            ):
                raise ExtractionFailedError(
                    f"step {i}: contracts fragments {a} and {b}, which are not adjacent"
                )
            frag[keep] |= frag[gone]
            del frag[gone]
        m = _pattern_edge_count(host, frag)
        if m != m_after:
            raise ExtractionFailedError(
                f"step {i}: replayed pattern has {m} edges, trace says {m_after}"
            )
    return MinorModel(host, [frozenset(frag[r]) for r in sorted(frag)])


def _pattern_edge_count(host: Graph, frag: dict[int, set[int]]) -> int:
    reps = sorted(frag)
    masks = [sum(1 << v for v in frag[r]) for r in reps]
    nbm = []
    for i, r in enumerate(reps):
        bits = 0
        for v in frag[r]:
            bits |= host.neighbor_bits(v)
        nbm.append(bits & ~masks[i])
    return sum(
        1
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
        if nbm[i] & masks[j]
    )


def _above(mask: int, x: int) -> int:
    """The bits of mask for vertices greater than x."""
    return mask >> (x + 1) << (x + 1)


class _Work:
    """Mutable descent state: fragments keyed by representative and pattern
    adjacency as bitmasks.  The loss of a pattern edge xy is
    1 + |N(x) & N(y)|, the edge count a contraction of xy removes.  Row x
    holds the edges xy with y > x; lb[x] is a lower bound on its least
    loss.  When bit x of `exact` is set the bound is attained and arg[x]
    is the smallest y attaining it.  Rows with edges are keyed (lb[x], x)
    in a lazy heap whose entries not matching lb are stale."""

    def __init__(self, g: Graph):
        self.g = g
        self.frags: dict[int, set[int]] = {v: {v} for v in range(g.n)}
        self.bits: dict[int, int] = {v: g.neighbor_bits(v) for v in range(g.n)}
        self.e = g.m
        self.steps: list[tuple[str, tuple[int, ...], int]] = []
        self.lb: dict[int, int] = {
            v: 1 for v in range(g.n) if _above(self.bits[v], v)
        }
        self.arg: dict[int, int] = {}
        self.exact = 0
        # sorted, hence already a heap
        self.heap: list[tuple[int, int]] = [(1, v) for v in self.lb]

    def least_loss_edge(self) -> tuple[int, int, int] | None:
        """Lexicographically least (loss, a, b) over pattern edges a < b,
        or None when the pattern has no edges."""
        heap = self.heap
        while heap:
            lb, x = heap[0]
            if self.lb.get(x) != lb:
                heapq.heappop(heap)
            elif self.exact >> x & 1:
                return lb, x, self.arg[x]
            else:
                heapq.heappop(heap)
                self._rescan(x, lb)
        return None

    def _rescan(self, x: int, floor: int) -> None:
        """Make row x exact; floor is a lower bound on its least loss, so
        the first edge reaching it ends the scan."""
        bx = self.bits[x]
        rest = _above(bx, x)
        if not rest:
            self.lb.pop(x, None)
            return
        best = arg = -1
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            loss = 1 + (bx & self.bits[y]).bit_count()
            if best < 0 or loss < best:
                best, arg = loss, y
                if loss <= floor:
                    break
            rest ^= low
        self.lb[x] = best
        self.arg[x] = arg
        self.exact |= 1 << x
        heapq.heappush(self.heap, (best, x))

    def _lower(self, mask: int) -> None:
        """Rows in mask lost one common neighbor of some of their edges:
        each of their losses dropped by at most one."""
        lb = self.lb
        for x in mask_vertices(mask):
            bound = lb.get(x, 1)
            if bound > 1:
                lb[x] = bound - 1
                heapq.heappush(self.heap, (bound - 1, x))

    def delete(self, rep: int) -> None:
        nb = self.bits.pop(rep)
        keep = ~(1 << rep)
        for w in mask_vertices(nb):
            self.bits[w] &= keep
        self.lb.pop(rep, None)
        self.exact &= ~nb
        self._lower(nb)
        self.e -= nb.bit_count()
        del self.frags[rep]
        self.steps.append(("delete", (rep,), self.e))

    def contract(self, a: int, b: int) -> None:
        if a > b:
            a, b = b, a
        bits = self.bits
        na, nb = bits[a], bits.pop(b)
        ends = (1 << a) | (1 << b)
        common = na & nb
        for w in mask_vertices(nb & ~ends):
            bits[w] = (bits[w] & ~(1 << b)) | (1 << a)
        bits[a] = (na | nb) & ~ends
        self.frags[a] |= self.frags[b]
        del self.frags[b]
        self.e -= 1 + common.bit_count()
        self.steps.append(("contract", (a, b), self.e))
        # A loss 1 + |N(x) & N(y)| falls only when x and y are both in
        # N(a) & N(b), and then by one.  For the other rows touching a or b
        # the losses only rise or their edges vanish; an edge xb with x
        # outside N(a) turns into xa, whose common neighbors include all
        # of the old N(x) & N(b), so x < a needs no new bound either.
        self.lb.pop(b, None)
        self.exact &= ~(na | nb)
        self._lower(common)
        self._rescan(a, 1)

    def pattern(self) -> tuple[Graph, list[int]]:
        reps = sorted(self.frags)
        idx = {r: i for i, r in enumerate(reps)}
        edges = [
            (idx[a], idx[b])
            for a in reps
            for b in mask_vertices(_above(self.bits[a], a))
        ]
        return Graph(len(reps), edges), reps

    def model(self) -> MinorModel:
        return MinorModel(
            self.g, [frozenset(self.frags[r]) for r in sorted(self.frags)]
        )


def _restrict_to_best_component(work: _Work) -> None:
    g = work.g
    best: set[int] | None = None
    best_avg = Fraction(-1)
    for mask in g.component_masks():
        comp = {v for v in range(g.n) if mask >> v & 1}
        inner = sum(len(g.neighbors(v) & comp) for v in comp)
        avg = Fraction(inner, len(comp))
        if avg > best_avg or (avg == best_avg and min(comp) < min(best)):
            best, best_avg = comp, avg
    assert best is not None
    for v in sorted(set(range(g.n)) - best):
        work.delete(v)


def _mader_descent(work: _Work, d: int) -> None:
    """Shrink to at most d pattern vertices while keeping min degree above
    (d-1)/2.  Maintained potential: twice the edge count stays at least
    (d-1) times the order; deleting a vertex of degree at most (d-1)/2
    preserves it, so when no such vertex is left the min degree exceeds
    (d-1)/2, i.e. is at least d/2.

    The contraction tried first is the lexicographically least
    (loss, a, b) over pattern edges a < b.  It is read off the row bounds
    of `_Work` instead of a scan of every edge.  Invariant: every live row
    with edges has lb at most its least loss, with equality and the
    smallest attaining b when it is exact.  So when the heap front (lb, a)
    is exact, every other row r has (least loss of r, r) >= (lb[r], r) >
    (lb, a), and (lb, a, arg[a]) is the least triple with the same
    tie-break as a full scan: smallest loss, then smallest a, then
    smallest b.  Deletions and contractions keep the invariant by lowering
    the bound of each row whose losses can fall (by at most one) and
    dropping the exactness of each row whose losses can rise, so only
    those rows are ever rescanned."""
    while True:
        if not work.frags:
            raise ExtractionFailedError("descent consumed the whole graph")
        deg, v = min((m.bit_count(), r) for r, m in work.bits.items())
        if 2 * deg <= d - 1:
            work.delete(v)
            continue
        n_pat = len(work.frags)
        if n_pat <= d:
            return
        slack = 2 * work.e - (d - 1) * n_pat
        best = work.least_loss_edge()
        if best is None:
            raise ExtractionFailedError("no edges left above target order")
        loss, a, b = best
        if 2 * loss <= slack + d - 1:
            work.contract(a, b)
            continue
        picked = _degree_safe_contraction(work, d)
        if picked is not None:
            work.contract(*picked)
            continue
        if n_pat <= _EXHAUSTIVE_ORDER:
            _exhaustive_finish(work, d)
            return
        raise ExtractionFailedError(
            f"descent stuck at {n_pat} pattern vertices"
        )


def _degree_safe_contraction(work: _Work, d: int) -> tuple[int, int] | None:
    """Cheapest contraction that keeps every pattern degree at least d/2,
    used once the potential-preserving moves run out."""
    degs = {r: m.bit_count() for r, m in work.bits.items()}
    best: tuple[int, int, int] | None = None
    for a in sorted(work.frags):
        na = work.bits[a]
        for b in mask_vertices(_above(na, a)):
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


def _exhaustive_finish(work: _Work, d: int) -> None:
    """Search every delete/contract sequence on the current (small) pattern
    for a minor meeting the order and degree targets, then apply it."""
    pat, reps = work.pattern()
    budget = [active_caps().search_nodes]
    moves = _search_small_minor(pat, d, budget)
    if moves is None:
        raise ExtractionFailedError(
            f"no minor of order <= {d} with min degree >= {d}/2 exists here"
        )
    for move in moves:
        if move[0] == "delete":
            work.delete(min(reps[i] for i in move[1]))
        else:
            work.contract(
                min(reps[i] for i in move[1]), min(reps[i] for i in move[2])
            )


def _search_small_minor(h: Graph, d: int, budget: list[int]):
    h_bits = [h.neighbor_bits(v) for v in range(h.n)]

    def mask_of(f: frozenset[int]) -> int:
        return sum(1 << v for v in f)

    def nb_mask(f: frozenset[int]) -> int:
        bits = 0
        for v in f:
            bits |= h_bits[v]
        return bits & ~mask_of(f)

    def achieved(state: frozenset[frozenset[int]]) -> bool:
        if not state or len(state) > d:
            return False
        frs = sorted(state, key=min)
        masks = [mask_of(f) for f in frs]
        nbms = [nb_mask(f) for f in frs]
        degs = [
            sum(1 for j in range(len(frs)) if j != i and nbms[i] & masks[j])
            for i in range(len(frs))
        ]
        return 2 * min(degs) >= d

    visited: set[frozenset[frozenset[int]]] = set()
    moves: list[tuple] = []

    def rec(state: frozenset[frozenset[int]]) -> bool:
        budget[0] -= 1
        if budget[0] <= 0:
            raise ExtractionFailedError("fallback search budget exhausted")
        if state in visited:
            return False
        visited.add(state)
        if achieved(state):
            return True
        frs = sorted(state, key=min)
        for i in range(len(frs)):
            mi = nb_mask(frs[i])
            for j in range(i + 1, len(frs)):
                if not mi & mask_of(frs[j]):
                    continue
                nxt = (state - {frs[i], frs[j]}) | {frs[i] | frs[j]}
                moves.append(("contract", frs[i], frs[j]))
                if rec(nxt):
                    return True
                moves.pop()
        for f in frs:
            moves.append(("delete", f))
            if rec(state - {f}):
                return True
            moves.pop()
        return False

    return moves if rec(frozenset(frozenset((v,)) for v in range(h.n))) else None


def _certify_mader(model: MinorModel, d: int) -> None:
    pattern = require_valid(model).pattern
    if pattern.n > d or 2 * pattern.min_degree() < d:
        raise ExtractionFailedError(
            "descent finished without meeting the order/degree targets"
        )


def mader_min_degree_minor_with_trace(
    g: Graph, d: int
) -> tuple[MinorModel, ExtractionTrace]:
    if d < 2:
        raise HypothesisViolatedError("the degree target must be at least 2")
    if average_degree(g) < d - 1:
        raise HypothesisViolatedError(
            f"average degree below {d - 1} cannot support the target"
        )
    work = _Work(g)
    _restrict_to_best_component(work)
    _mader_descent(work, d)
    model = work.model()
    _certify_mader(model, d)
    trace = ExtractionTrace(tuple(work.steps), model)
    return model, trace


def mader_min_degree_minor(g: Graph, d: int) -> MinorModel:
    """Minor with at most d vertices and min degree at least d/2, from any
    host of average degree at least d-1."""
    return mader_min_degree_minor_with_trace(g, d)[0]


def dense_connected_minor_with_trace(
    g: Graph, d: int
) -> tuple[MinorModel, ExtractionTrace]:
    if d < 2:
        raise HypothesisViolatedError("the degree target must be at least 2")
    if average_degree(g) < d - 1:
        raise HypothesisViolatedError(
            f"average degree below {d - 1} cannot support the target"
        )
    work = _Work(g)
    _restrict_to_best_component(work)
    _mader_descent(work, d)
    _certify_mader(work.model(), d)
    pat, reps = work.pattern()
    if pat.n >= 2:
        kappa, cutset = vertex_connectivity_with_cutset(pat)
        if 6 * kappa < d:
            assert cutset is not None  # complete patterns are d/2-connected
            keep = _small_side(pat, set(cutset))
            for r in sorted(reps[i] for i in set(range(pat.n)) - keep):
                work.delete(r)
    model = work.model()
    _certify_dense_connected(model, d)
    return model, ExtractionTrace(tuple(work.steps), model)


def _small_side(pat: Graph, cut: set[int]) -> set[int]:
    """Smallest component of the pattern minus the cutset; with min degree
    >= d/2 and cut order < d/6 its vertices keep more than d/3 neighbors
    and pairwise share more than d/6, so it is already d/6-connected."""
    rest = sorted(set(range(pat.n)) - cut)
    sub, old = induced_subgraph(pat, rest)
    best: set[int] | None = None
    for mask in sub.component_masks():
        comp = {old[v] for v in range(sub.n) if mask >> v & 1}
        if (
            best is None
            or len(comp) < len(best)
            or (len(comp) == len(best) and min(comp) < min(best))
        ):
            best = comp
    assert best is not None
    return best


def _certify_dense_connected(model: MinorModel, d: int) -> None:
    pattern = require_valid(model).pattern
    ok = 2 <= pattern.n <= d and 3 * pattern.min_degree() >= d
    if ok:
        kappa, _ = vertex_connectivity_with_cutset(pattern)
        ok = 6 * kappa >= d
    if not ok:
        raise ExtractionFailedError(
            "restriction finished without meeting the density targets"
        )


def dense_connected_minor(g: Graph, d: int) -> MinorModel:
    """Minor with at most d vertices, min degree at least d/3, and
    connectivity at least d/6."""
    return dense_connected_minor_with_trace(g, d)[0]


def peel_dense_subset(g: Graph, s, r: int, delta) -> tuple[int, ...]:
    """Largest subset of s in which every vertex keeps inside-degree at
    least max(delta, its host degree / r); possibly empty.  When
    (r-2)e(s) > (r-1)*delta*|s| + boundary(s) held on the way in, the
    result is provably nonempty."""
    if r < 3:
        raise HypothesisViolatedError("the degree divisor must be at least 3")
    delta = Fraction(delta)
    if delta <= 0:
        raise HypothesisViolatedError("the degree floor must be positive")
    cur = set(s)
    for v in cur:
        g.check_vertex(v)
    inner0 = sum(len(g.neighbors(v) & cur) for v in cur) // 2
    boundary0 = sum(len(g.neighbors(v) - cur) for v in cur)
    guaranteed = bool(cur) and (r - 2) * inner0 > (r - 1) * delta * len(
        cur
    ) + boundary0
    changed = True
    while changed:
        changed = False
        for v in sorted(cur):
            inside = len(g.neighbors(v) & cur)
            if inside < max(delta, Fraction(g.degree(v), r)):
                cur.discard(v)
                changed = True
    if guaranteed:
        assert cur, "peeling emptied a set whose surplus guaranteed a core"
    return tuple(sorted(cur))


def _connectivity_descent(g: Graph, start: set[int], k: int) -> set[int] | None:
    """Shrink toward a k-connected induced subgraph by stepping into the
    side of each small separation with the larger edge surplus
    (2e - (4k-3)n); certified by the exit condition, None when stuck."""
    cur = set(start)
    while True:
        if len(cur) < k + 1:
            return None
        sub, old = induced_subgraph(g, sorted(cur))
        kappa, cutset = vertex_connectivity_with_cutset(sub)
        if kappa >= k:
            return cur
        if cutset is None:
            return None  # complete but too small to reach k
        cut_host = {old[x] for x in cutset}
        rest = sorted(cur - cut_host)
        inner, old2 = induced_subgraph(g, rest)
        best_side: set[int] | None = None
        best_score: int | None = None
        for mask in inner.component_masks():
            side = {old2[v] for v in range(inner.n) if mask >> v & 1} | cut_host
            e_side = sum(len(g.neighbors(v) & side) for v in side) // 2
            score = 2 * e_side - (4 * k - 3) * len(side)
            if (
                best_score is None
                or score > best_score
                or (score == best_score and min(side - cut_host) < min(best_side - cut_host))
            ):
                best_side, best_score = side, score
        assert best_side is not None and len(best_side) < len(cur)
        cur = best_side


def k_connected_subgraph(g: Graph, k: int) -> tuple[int, ...]:
    """Vertex set inducing a k-connected subgraph, from any host of average
    degree at least 4k."""
    if k < 1:
        raise HypothesisViolatedError("the connectivity target must be >= 1")
    if average_degree(g) < 4 * k:
        raise HypothesisViolatedError(
            f"average degree below {4 * k} cannot support the target"
        )
    found = _connectivity_descent(g, set(range(g.n)), k)
    if found is None:
        raise ExtractionFailedError("connectivity descent ran out of sides")
    return tuple(sorted(found))


def disjoint_k_connected_collection(
    g: Graph, k: int, max_size: int, want: int
) -> list[tuple[int, ...]]:
    """Greedy pass peeling off pairwise-disjoint k-connected induced
    subgraphs of at most max_size vertices until `want` are found."""
    if k < 1:
        raise HypothesisViolatedError("the connectivity target must be >= 1")
    if want < 0:
        raise HypothesisViolatedError("the requested count must be >= 0")
    remaining = set(range(g.n))
    out: list[tuple[int, ...]] = []
    while len(out) < want:
        found = _connectivity_descent(g, remaining, k)
        if found is None or len(found) > max_size:
            raise InsufficientError(
                f"only {len(out)} of {want} disjoint subgraphs found", len(out)
            )
        out.append(tuple(sorted(found)))
        remaining -= found
    return out
