"""Contraction-descent extraction: low-order minors with degree and
connectivity guarantees, and k-connected subgraphs."""

from __future__ import annotations

import heapq
from fractions import Fraction

from .config import SEARCH_NODES
from .connectivity import vertex_connectivity_with_cutset
from .errors import (Budget, ExtractionFailedError, HypothesisViolatedError, check_count,
                     check_internal)
from .graph import Graph, average_degree, induced_subgraph, mask_of, mask_vertices
from .model import MinorModel

_EXHAUSTIVE_ORDER = 12  # widest pattern the stuck-descent fallback will search


def _above(mask: int, x: int) -> int:
    """The bits of mask for vertices greater than x."""
    return mask >> (x + 1) << (x + 1)


class _Work:
    """Mutable descent state: fragments keyed by representative and pattern
    adjacency as bitmasks.  The loss of a pattern edge xy is
    1 + |N(x) & N(y)|, the edge count a contraction of xy removes.  Row x
    holds the edges xy with y > x; lb[x] is a lower bound on its least
    loss, 0 when row x is not queued.  When bit x of `exact` is set the
    bound is attained and arg[x] is the smallest y attaining it.  Every
    row with edges is queued by its bound: bit x of bucket[b] is set when
    lb[x] = b, and every bucket below `low` is empty.  A row whose edges
    all went stays queued until it reaches the front.  `steps` records
    each move as (kind, representatives, edge count after it).

    Pigeonhole floor: for a pattern edge xy on n live vertices,
    N(x) - {y} and N(y) - {x} both lie among the other n - 2 vertices, so
    they share at least deg x + deg y - n of them and every loss in row x
    is at least 1 + deg x + delta - n, delta the least pattern degree.  A
    bound raised to that floor is still a lower bound, so rows can leave
    the queue front without a scan."""

    def __init__(self, g: Graph):
        self.g = g
        self.frags: dict[int, set[int]] = {v: {v} for v in range(g.n)}
        self.bits: dict[int, int] = {v: g.neighbor_bits(v) for v in range(g.n)}
        self.e = g.m
        self.steps: list[tuple[str, tuple[int, ...], int]] = []
        # a loss is at most 1 + (n - 2), so bounds fit in buckets 1..n
        self.bucket = [0] * (g.n + 1)
        self.bucket[1] = mask_of(v for v in range(g.n) if _above(self.bits[v], v))
        self.lb = [1 if self.bucket[1] >> v & 1 else 0 for v in range(g.n)]
        self.low = 1
        self.arg: dict[int, int] = {}
        self.exact = 0

    def least_loss_edge(self, delta: int) -> tuple[int, int, int] | None:
        """Lexicographically least (loss, a, b) over pattern edges a < b,
        or None when the pattern has no edges.  `delta` is the least
        pattern degree; a front row below its floor is lifted to it
        instead of rescanned."""
        bucket = self.bucket
        floor = 1 + delta - len(self.frags)
        b = self.low
        while b < len(bucket):
            rows = bucket[b]
            if not rows:
                b += 1
                continue
            x = (rows & -rows).bit_length() - 1
            if self.exact >> x & 1:
                self.low = b
                return b, x, self.arg[x]
            lifted = floor + self.bits[x].bit_count()
            if lifted > b:
                self._lift(x, lifted)
            else:
                self._rescan(x)
        self.low = b
        return None

    def _lift(self, x: int, bound: int) -> None:
        """Raise the bound of row x, the queue front, to its floor."""
        self.bucket[self.lb[x]] ^= 1 << x
        self.bucket[bound] |= 1 << x
        self.lb[x] = bound

    def _drop(self, x: int) -> None:
        """Take row x out of the queue."""
        if self.lb[x]:
            self.bucket[self.lb[x]] ^= 1 << x
            self.lb[x] = 0

    def _rescan(self, x: int) -> None:
        """Make row x exact: its least loss, at the smallest y attaining it."""
        self._drop(x)
        bx = self.bits[x]
        ys = mask_vertices(_above(bx, x))
        if not ys:
            return
        common = list(map(int.bit_count, map(bx.__and__, map(self.bits.__getitem__, ys))))
        least = min(common)
        self.lb[x] = best = 1 + least
        self.bucket[best] |= 1 << x
        self.low = min(self.low, best)
        self.arg[x] = ys[common.index(least)]
        self.exact |= 1 << x

    def _lower(self, mask: int) -> None:
        """Rows in mask lost one common neighbor of some of their edges:
        each of their losses dropped by at most one."""
        lb, bucket, low = self.lb, self.bucket, self.low
        for x in mask_vertices(mask):
            bound = lb[x]
            if bound > 1:
                bit = 1 << x
                bucket[bound] ^= bit
                bound -= 1
                bucket[bound] |= bit
                lb[x] = bound
                if bound < low:
                    low = bound
        self.low = low

    def delete(self, rep: int) -> None:
        nb = self.bits.pop(rep)
        keep = ~(1 << rep)
        for w in mask_vertices(nb):
            self.bits[w] &= keep
        self._drop(rep)
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
        self._drop(b)
        self.exact &= ~(na | nb)
        self._lower(common)
        self._rescan(a)

    def model(self) -> MinorModel:
        return MinorModel(
            self.g, [frozenset(self.frags[r]) for r in sorted(self.frags)]
        )


def _restrict_to_best_component(work: _Work) -> None:
    g = work.g
    best = 0
    best_avg = Fraction(-1)
    # components come ordered by least vertex, so a tie keeps the earlier one
    for comp in g.components_in((1 << g.n) - 1):
        inner = sum((g.neighbor_bits(v) & comp).bit_count() for v in mask_vertices(comp))
        avg = Fraction(inner, comp.bit_count())
        if avg > best_avg:
            best, best_avg = comp, avg
    for v in mask_vertices(((1 << g.n) - 1) & ~best):
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
    smallest attaining b when it is exact.  The queue front (lb, a) is the
    lowest row a of the lowest non-empty bucket lb, so when it is exact
    every other row r has (least loss of r, r) >= (lb[r], r) > (lb, a),
    and (lb, a, arg[a]) is the least triple with the same tie-break as a
    full scan: smallest loss, then smallest a, then smallest b.  Deletions
    and contractions keep the invariant by moving each row whose losses
    can fall (by at most one) down one bucket and dropping the exactness
    of each row whose losses can rise, so only those rows are ever
    rescanned.  A row at the queue front whose bound is
    below the pigeonhole floor of `_Work` (1 + deg x + delta - n, with
    delta the least degree computed at the top of each iteration) is
    lifted to the floor without a scan; the floor is at most its least
    loss, so the invariant holds and only exact rows are ever returned."""
    while True:
        if not work.frags:
            raise ExtractionFailedError("descent consumed the whole graph")
        deg, v = min(zip(map(int.bit_count, work.bits.values()), work.bits))
        if 2 * deg <= d - 1:
            work.delete(v)
            continue
        n_pat = len(work.frags)
        if n_pat <= d:
            return
        slack = 2 * work.e - (d - 1) * n_pat
        best = work.least_loss_edge(deg)
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
    used once the potential-preserving moves run out.  Contracting ab
    leaves the merged vertex its degree, lowers by one the degrees in
    N(a) & N(b) and leaves the others; the least of the others is the
    least degree off {a, b}, one of the three smallest."""
    bits = work.bits
    smallest = heapq.nsmallest(3, ((m.bit_count(), r) for r, m in bits.items()))
    best: tuple[int, int, int] | None = None
    for a in sorted(work.frags):
        na = bits[a]
        for b in mask_vertices(_above(na, a)):
            nb = bits[b]
            common = na & nb
            low = ((na | nb) & ~(1 << a) & ~(1 << b)).bit_count()
            for dv, v in smallest:
                if v != a and v != b:
                    low = min(low, dv)
                    break
            for v in mask_vertices(common):
                low = min(low, bits[v].bit_count() - 1)
            if 2 * low < d:
                continue
            loss = 1 + common.bit_count()
            if best is None or (loss, a, b) < best:
                best = (loss, a, b)
    return None if best is None else (best[1], best[2])


def _exhaustive_finish(work: _Work, d: int) -> None:
    """Search every delete/contract sequence on the current (small) pattern
    for a minor meeting the order and degree targets, then apply it, each
    fragment named by its least vertex, its key in the workspace."""
    moves = _search_small_minor(work.bits, d)
    if moves is None:
        raise ExtractionFailedError(
            f"no minor of order <= {d} with min degree >= {d}/2 exists here"
        )
    for kind, *frags in moves:  # kind names the _Work method: delete or contract
        getattr(work, kind)(*((f & -f).bit_length() - 1 for f in frags))


def _search_small_minor(rows: dict[int, int], d: int):
    """Moves from the pattern with neighbour masks ``rows`` to a minor of
    order at most d and min degree at least d/2, or None.  A state is the
    tuple of its fragment masks by least vertex; contracting f and a later
    h puts f | h in f's slot, whose least vertex it keeps."""
    budget = Budget(SEARCH_NODES, ExtractionFailedError, "fallback search budget exhausted")
    visited: set[tuple[int, ...]] = set()
    moves: list[tuple] = []

    def rec(state: tuple[int, ...]) -> bool:
        budget.spend()
        if state in visited:
            return False
        visited.add(state)
        nbs = []
        for f in state:
            nb = 0
            for v in mask_vertices(f):
                nb |= rows[v]
            nbs.append(nb & ~f)
        degs = [sum(1 for h in state if nb & h) for nb in nbs]
        if state and len(state) <= d and 2 * min(degs) >= d:
            return True
        for i, f in enumerate(state):
            for j, h in enumerate(state[i + 1:], i + 1):
                if not nbs[i] & h:
                    continue
                moves.append(("contract", f, h))
                if rec(state[:i] + (f | h,) + state[i + 1:j] + state[j + 1:]):
                    return True
                moves.pop()
        for i, f in enumerate(state):
            moves.append(("delete", f))
            if rec(state[:i] + state[i + 1:]):
                return True
            moves.pop()
        return False

    return moves if rec(tuple(1 << v for v in sorted(rows))) else None


def _certified_descent(g: Graph, d: int) -> tuple[_Work, MinorModel]:
    """The descent from the densest component of ``g`` down to order at
    most d and min degree at least d/2, with its model certified."""
    check_count("the degree target", d, 2)
    if average_degree(g) < d - 1:
        raise HypothesisViolatedError(
            f"average degree below {d - 1} cannot support the target"
        )
    work = _Work(g)
    _restrict_to_best_component(work)
    _mader_descent(work, d)
    model = work.model()
    if model.pattern.n > d or 2 * model.pattern.min_degree() < d:
        raise ExtractionFailedError(
            "descent finished without meeting the order/degree targets"
        )
    return work, model


def mader_min_degree_minor(g: Graph, d: int) -> MinorModel:
    """Minor with at most d vertices and min degree at least d/2, from any
    host of average degree at least d-1."""
    return _certified_descent(g, d)[1]


def dense_connected_minor(g: Graph, d: int) -> MinorModel:
    """Minor with at most d vertices, min degree at least d/3, and
    connectivity at least d/6."""
    work, model = _certified_descent(g, d)
    pat, reps = model.pattern, sorted(work.frags)
    if pat.n >= 2:
        kappa, cutset = vertex_connectivity_with_cutset(pat, -(-d // 6))
        if 6 * kappa < d:
            check_internal(
                cutset is not None, "a pattern below the connectivity target has a cutset"
            )
            keep = _small_side(pat, mask_of(cutset))
            for i in mask_vertices(((1 << pat.n) - 1) & ~keep):
                work.delete(reps[i])
            model = work.model()
    _certify_dense_connected(model, d)
    return model


def _small_side(pat: Graph, cut: int) -> int:
    """Smallest component of the pattern minus the cutset, as a mask; with
    min degree >= d/2 and cut order < d/6 its vertices keep more than d/3
    neighbors and pairwise share more than d/6, so it is already
    d/6-connected."""
    # components come ordered by least vertex, so a tie keeps the earlier one
    comps = pat.components_in(((1 << pat.n) - 1) & ~cut)
    check_internal(bool(comps), "removing the cutset left no component")
    return min(comps, key=int.bit_count)


def _certify_dense_connected(model: MinorModel, d: int) -> None:
    pattern = model.pattern
    ok = 2 <= pattern.n <= d and 3 * pattern.min_degree() >= d
    if ok:
        kappa, _ = vertex_connectivity_with_cutset(pattern, -(-d // 6))
        ok = 6 * kappa >= d
    if not ok:
        raise ExtractionFailedError(
            "restriction finished without meeting the density targets"
        )


def _connectivity_descent(g: Graph, k: int) -> int | None:
    """Shrink toward a k-connected induced subgraph, a vertex mask, by
    stepping into the side of each small separation with the larger edge
    surplus (2e - (4k-3)n); certified by the exit condition, None when
    stuck."""
    cur = (1 << g.n) - 1
    while True:
        if cur.bit_count() < k + 1:
            return None
        sub, old = induced_subgraph(g, mask_vertices(cur))
        kappa, cutset = vertex_connectivity_with_cutset(sub, k)
        if kappa >= k:
            return cur
        if cutset is None:
            return None  # complete but too small to reach k
        cut = mask_of(old[x] for x in cutset)
        best_side = best_score = None
        # components come ordered by least vertex, so a tie keeps the earlier one
        for comp in g.components_in(cur & ~cut):
            side = comp | cut
            e_side = sum((g.neighbor_bits(v) & side).bit_count() for v in mask_vertices(side)) // 2
            score = 2 * e_side - (4 * k - 3) * side.bit_count()
            if best_score is None or score > best_score:
                best_side, best_score = side, score
        check_internal(
            best_side is not None and best_side != cur,
            "a side of a separation must be smaller than the whole",
        )
        cur = best_side


def k_connected_subgraph(g: Graph, k: int) -> tuple[int, ...]:
    """Vertex set inducing a k-connected subgraph, from any host of average
    degree at least 4k."""
    check_count("the connectivity target", k, 1)
    if average_degree(g) < 4 * k:
        raise HypothesisViolatedError(
            f"average degree below {4 * k} cannot support the target"
        )
    found = _connectivity_descent(g, k)
    if found is None:
        raise ExtractionFailedError("connectivity descent ran out of sides")
    return tuple(mask_vertices(found))
