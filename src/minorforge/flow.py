"""Unit-capacity max-flow machinery shared by the path and separation tools.

Every routine here works on the vertex-split network of the host (Even and
Tarjan's reduction): vertex ``v`` becomes nodes ``in(v)`` and ``out(v)``
joined by an arc of capacity ``cap[v]``, and each edge ``uw`` gives arcs
``out(u) -> in(w)`` and ``out(w) -> in(u)`` of unbounded capacity, so
vertex-disjointness questions reduce to arc capacities.  The network is
never built: arcs are read off the host's neighbour bitmasks, and the flow
is the throughput of each vertex plus two bitmasks per vertex, ``fout[u]``
bit ``w`` and ``fin[w]`` bit ``u`` being set while ``out(u) -> in(w)``
carries a unit.

One path finder, ``_augment``, works on that state: it pushes one
shortest path per BFS (FIFO queue), and ``_apply`` walks the path to push
the unit.  From ``in(v)`` the search scans ``out(v)``, then the reverse
arcs ``fin[v]``; from ``out(v)`` it scans ``in(v)`` (reverse), the sink,
then ``N(v)`` minus the sources; each set in ascending order.  That is the
order sorted adjacency lists of an explicit network give, so the flow, and
the paths ``SetFlow.paths`` decomposes it into, are deterministic and fixed.

The cut does not depend on the flow a run starts from.  For every maximum
flow, the nodes the source reaches in the residual network are the same
set, the source side of the unique inclusion-minimal minimum cut;
``cut_vertices`` reads the cut off that set, so a run seeded with any flow
gives the same cut, and a capped run stops at exactly its limit.

Callers skip a capped flow whose answer adjacency already forces, by two
lemmas.  The forced-cut lemma: take a separation (A, B) with ``S ⊆ A``
and ``U ⊆ B ∖ A``; a vertex of ``S`` with a neighbour in ``U`` lies in
A∩B, since no edge joins A∖B to B∖A, so the order is at least
``|S ∩ N(U)|``.  Likewise every x-y vertex cut contains ``N(x) ∩ N(y)``.
The path-packing lemma: for nonadjacent x and y with ``C = N(x) ∩ N(y)``,
the paths x-c-y for c in C and x-a-b-y for a in ``N(x) ∖ C`` and b in
``N(y) ∖ C``, each a and b used once, are internally disjoint, since such
an a is never adjacent to y nor such a b to x; every x-y vertex cut has a
vertex on each of them, so their number (``_short_paths``) is a lower
bound on its size.  When either count reaches the limit, a capped run
would stop at the limit with no cut.  ``pair_vertex_cut`` applies the
path-packing lemma itself, and goes on past it: when the packed paths
fall short of the limit, it adds greedy shortest x-y paths
(``Graph.shortest_path``) through vertices no earlier path uses, until
the limit or until none is left (``_seed_paths``).  These paths are
internally disjoint too, so their number is again a lower bound on every
x-y cut.  A seed that reaches the limit returns ``(limit, None)`` without
building a network; a shorter one is a flow to start from, and the
searches take it on to a maximum one, rerouting seed paths over reverse
arcs where a greedy choice blocked other paths.  Since the cut is the
same for every maximum flow and a capped run stops at exactly its limit,
the value and cut do not depend on the seed.
"""

from __future__ import annotations

from .errors import HypothesisViolatedError, check_count, check_internal
from .graph import Graph, mask_of, mask_vertices

INF = 1 << 30


# FlowNet and SetFlow are one engine split in two, and its entry points keep
# the names FlowNet.max_flow, SetFlow.__init__/run/paths/cut_vertices and
# pair_vertex_cut, because the benchmark's tracer (perfbench/tracing.py)
# wraps them by name to count network builds and pushed units.
class FlowNet:
    """Residual state of a vertex-split network: ``through[v]`` units cross
    vertex ``v`` (at most ``cap[v]``), ``fout``/``fin`` mark the graph arcs
    carrying a unit, the source feeds ``in(v)`` for each of ``sources`` and
    ``out(v)`` feeds the sink for each ``v`` in ``tmask``.  Sources accept
    no graph arcs and targets emit none.  ``_reach`` holds the reach masks
    of the search that stalled, and is cleared whenever a unit is pushed."""

    __slots__ = ("bits", "sources", "smask", "tmask", "cap", "through", "fout", "fin", "_reach")

    def _search(self):
        """One BFS of the residual network from the source.  Returns the
        parent of every reached node (``in(v) = 2v``, ``out(v) = 2v + 1``,
        the source is ``-1``), the ``out`` node that reached the sink or
        ``-1``, and the masks of reached ``in`` and ``out`` nodes, which are
        the source side of a minimum cut when the sink stays unreached.

        A target's ``out`` node is entered only from its own ``in`` node,
        since targets emit no arcs, so the first ``in`` node queued of a
        target with spare capacity decides the augmenting path: the search
        stops there instead of when that ``out`` node would be popped."""
        bits, cap, through, fin = self.bits, self.cap, self.through, self.fin
        arcs_in, tmask = ~self.smask, self.tmask
        parent = [0] * (2 * len(bits))
        queue = []
        seen_in = seen_out = 0
        for v in self.sources:
            if through[v] < cap[v]:
                seen_in |= 1 << v
                parent[2 * v] = -1
                if tmask >> v & 1:
                    parent[2 * v + 1] = 2 * v
                    return parent, 2 * v + 1, seen_in, seen_out
                queue.append(2 * v)
        for node in queue:  # the loop also visits what it appends: FIFO
            v = node >> 1
            if not node & 1:
                if through[v] < cap[v] and not seen_out >> v & 1:
                    seen_out |= 1 << v
                    parent[node + 1] = node
                    queue.append(node + 1)
                m = fin[v] & ~seen_out
                seen_out |= m
                while m:
                    b = m & -m
                    m ^= b
                    parent[2 * b.bit_length() - 1] = node
                    queue.append(2 * b.bit_length() - 1)
                continue
            if through[v] and not seen_in >> v & 1:
                seen_in |= 1 << v
                parent[node - 1] = node
                queue.append(node - 1)
            m = bits[v] & arcs_in & ~seen_in
            seen_in |= m
            while m:
                b = m & -m
                m ^= b
                w = b.bit_length() - 1
                parent[2 * w] = node
                if tmask & b and through[w] < cap[w]:
                    parent[2 * w + 1] = 2 * w
                    return parent, 2 * w + 1, seen_in, seen_out
                queue.append(2 * w)
        return parent, -1, seen_in, seen_out

    def _augment(self) -> bool:
        """Push one unit along a shortest augmenting path, if there is one.
        SetFlow's capacities put an arc of capacity one on every such path,
        so one unit is all a path carries."""
        parent, node, reach_in, reach_out = self._search()
        if node < 0:
            self._reach = reach_in, reach_out
            return False
        path = []
        while node >= 0:
            path.append(node)
            node = parent[node]
        path.reverse()
        self._apply(path)
        return True

    def _apply(self, path: list[int]) -> None:
        """Push one unit along ``path``, the nodes of an augmenting path
        after the source, ending at the ``out`` node of a target."""
        self._reach = None
        through, fout, fin = self.through, self.fout, self.fin
        for prev, node in zip(path, path[1:]):
            v = node >> 1
            if node & 1:
                if prev == node - 1:
                    through[v] += 1
                else:  # reverse arc in(u) -> out(v) cancels v's unit into u
                    fout[v] ^= 1 << (prev >> 1)
                    fin[prev >> 1] ^= 1 << v
            elif prev == node + 1:
                through[v] -= 1
            else:  # graph arc out(u) -> in(v)
                fout[prev >> 1] |= 1 << v
                fin[v] |= 1 << (prev >> 1)

    def max_flow(self, limit: int = INF) -> int:
        """Push one shortest augmenting path at a time until ``limit`` units
        went in or none is left; returns the units pushed.

        A return value below ``limit`` certifies the flow is maximum, so the
        residual cut is then a true minimum cut.
        """
        pushed = 0
        while pushed < limit and self._augment():
            pushed += 1
        return pushed


class SetFlow(FlowNet):
    """Flow network for disjoint paths between two vertex sets.

    Paths follow the convention that no internal vertex lies in ``s | t``:
    source-set vertices accept no incoming graph edges and target-set
    vertices emit no outgoing ones.  That leaves the maximum number of such
    paths unchanged (any path family can be rerouted to one of this shape of
    equal size) while making every decomposed flow path well formed.  A
    vertex in ``s & t`` carries only its own one-vertex path.

    ``uncuttable_sources=True`` and ``uncuttable_targets=True`` give source
    and target vertices infinite capacity, so a minimum cut can never
    contain them.  The two together need sources and targets nonadjacent,
    so that no arc carries two units.
    """

    __slots__ = ("value",)

    def __init__(
        self,
        g: Graph,
        s,
        t,
        *,
        uncuttable_sources: bool = False,
        uncuttable_targets: bool = False,
    ):
        s, t = g.vertex_set(s), g.vertex_set(t)
        self.bits = g._bits  # the host's own mask tuple: immutable, so shared
        self.sources = sorted(s)
        self.smask, self.tmask = mask_of(s), mask_of(t)
        self.cap = [1] * g.n
        if uncuttable_sources:
            for v in s - t:
                self.cap[v] = INF
        if uncuttable_targets:
            for v in t - s:
                self.cap[v] = INF
        if uncuttable_sources and uncuttable_targets and any(
            self.bits[v] & self.tmask & ~self.smask for v in s - t
        ):
            raise HypothesisViolatedError("an uncuttable source neighbours an uncuttable target")
        self.through = [0] * g.n
        self.fout = [0] * g.n
        self.fin = [0] * g.n
        self._reach = None
        self.value = 0

    def run(self, limit: int = INF) -> int:
        """Flow value after pushing up to ``limit`` units in all, one
        shortest path per search, the flow that ``paths`` decomposes."""
        self.value += self.max_flow(limit - self.value)
        return self.value

    def paths(self) -> list[tuple[int, ...]]:
        """Decompose the current flow into vertex paths, one per unit: a
        walk leaves its source along the lowest arc with a unit not yet
        walked, and stops at the first target.  An uncuttable source
        starts one path per unit it carries, sharing only that vertex."""
        left = list(self.fout)
        walked = [0] * len(left)
        out: list[tuple[int, ...]] = []
        for v in self.sources:
            for _ in range(self.through[v]):
                path, u = [], v
                while True:
                    at_target = self.tmask >> u & 1
                    check_internal(
                        walked[u] < self.through[u] and (at_target or left[u]),
                        "flow conservation violated in decomposition",
                    )
                    walked[u] += 1
                    path.append(u)
                    if at_target:
                        break
                    b = left[u] & -left[u]
                    left[u] ^= b
                    u = b.bit_length() - 1
                out.append(tuple(path))
        return out

    def cut_vertices(self) -> tuple[int, ...]:
        """Vertices of a minimum cut; valid once ``run`` stalled below its
        limit.  Reuses the reach masks of the search that stalled, if the
        flow stalled."""
        if self._reach is None:
            _, hit, reach_in, reach_out = self._search()
            check_internal(hit < 0, "a minimum cut was asked of a flow that is not maximum")
            self._reach = reach_in, reach_out
        reach_in, reach_out = self._reach
        # a target's out node is entered only through spare capacity at the
        # target, which would reach the sink, so a stalled flow never gets there
        cut = (reach_in & ~reach_out) | (self.smask & ~reach_in)
        return tuple(mask_vertices(cut))


def _short_paths(bits, x: int, y: int, limit: int) -> list[tuple[int, ...]]:
    """Middles of at most ``limit`` internally disjoint x-y paths of length
    two and three, for nonadjacent x and y (the path-packing lemma): ``(c,)``
    for each common neighbour c ascending, then ``(a, b)`` for each a of
    ``N(x) ∖ C`` ascending that has a neighbour in ``N(y) ∖ C`` not yet
    taken, b being the lowest such."""
    common = bits[x] & bits[y]
    near, far = bits[x] & ~common, bits[y] & ~common
    paths: list[tuple[int, ...]] = []
    while common and len(paths) < limit:
        c = common & -common
        common ^= c
        paths.append((c.bit_length() - 1,))
    while near and far and len(paths) < limit:
        a = near & -near
        near ^= a
        b = bits[a.bit_length() - 1] & far
        if b:
            b &= -b
            far ^= b
            paths.append((a.bit_length() - 1, b.bit_length() - 1))
    return paths


def _seed_paths(g: Graph, x: int, y: int, limit: int) -> list[tuple[int, ...]]:
    """Middles of at most ``limit`` internally disjoint x-y paths, for
    nonadjacent x and y: the packed short paths, then greedy shortest x-y
    paths (``Graph.shortest_path``) through vertices no earlier one uses,
    until ``limit`` paths or none is left."""
    paths = _short_paths(g._bits, x, y, limit)
    used = mask_of(v for mid in paths for v in mid)
    while len(paths) < limit:
        path = g.shortest_path(1 << x, 1 << y, ~used)  # y is never used
        if path is None:
            break
        paths.append(path[1:-1])
        used |= mask_of(path[1:-1])
    return paths


def pair_vertex_cut(g: Graph, x: int, y: int, limit: int = INF):
    """Maximum internally disjoint x-y paths for a nonadjacent pair and,
    when the maximum is below ``limit``, a minimum vertex cut separating
    them (never containing x or y).  Returns ``(value, cut_or_None)``."""
    check_count("limit", limit, 0)
    if x == y or g.has_edge(x, y):
        raise HypothesisViolatedError(
            "a pair cut needs two distinct nonadjacent vertices", evidence=(x, y)
        )
    seed = _seed_paths(g, x, y, limit)
    if len(seed) >= limit:
        return limit, None
    flow = SetFlow(g, (x,), (y,), uncuttable_sources=True, uncuttable_targets=True)
    # the seed paths are a flow to start from: the cut does not depend on
    # which maximum flow the searches end at
    for mid in seed:
        flow._apply([2 * x, 2 * x + 1, *(node for v in mid for node in (2 * v, 2 * v + 1)),
                     2 * y, 2 * y + 1])
    flow.value = len(seed)
    value = flow.run(limit)
    cut = flow.cut_vertices() if value < limit else None
    check_internal(cut is None or len(cut) == value, "cut size must match the maximum flow")
    return value, cut
