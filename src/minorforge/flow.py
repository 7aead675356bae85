"""Unit-capacity max-flow machinery shared by the path and separation tools.

Every routine here works on the vertex-split network of the host (Even and
Tarjan's reduction): vertex ``v`` becomes nodes ``in(v)`` and ``out(v)``
joined by an arc of capacity ``cap[v]``, and each edge ``uw`` gives arcs
``out(u) -> in(w)`` and ``out(w) -> in(u)`` of unbounded capacity, so
vertex-disjointness questions reduce to arc capacities.  The network is
never built: arcs are read off the host's neighbour bitmasks, and the flow
is the throughput of each vertex plus two bitmasks per vertex, ``fout[u]``
bit ``w`` and ``fin[w]`` bit ``u`` being set while ``out(u) -> in(w)``
carries a unit.  Augmentation is shortest-path (BFS, FIFO queue).  From
``in(v)`` it scans ``out(v)``, then the reverse arcs ``fin[v]``; from
``out(v)`` it scans ``in(v)`` (reverse), the sink, then ``N(v)`` minus the
sources; each set in ascending order.  That is the order sorted adjacency
lists of an explicit network give, which keeps every answer deterministic.
"""

from __future__ import annotations

from .errors import HypothesisViolatedError, check_internal
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
    no graph arcs and targets emit none."""

    __slots__ = ("bits", "sources", "smask", "tmask", "cap", "through", "fout", "fin")

    def _search(self):
        """One BFS of the residual network from the source.  Returns the
        parent of every reached node (``in(v) = 2v``, ``out(v) = 2v + 1``,
        the source is ``-1``), the ``out`` node that reached the sink or
        ``-1``, and the masks of reached ``in`` and ``out`` nodes, which are
        the source side of a minimum cut when the sink stays unreached."""
        bits, cap, through, fin = self.bits, self.cap, self.through, self.fin
        arcs_in, tmask = ~self.smask, self.tmask
        parent = [0] * (2 * len(bits))
        queue = []
        seen_in = seen_out = 0
        for v in self.sources:
            if through[v] < cap[v]:
                seen_in |= 1 << v
                parent[2 * v] = -1
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
            if tmask >> v & 1:
                if through[v] < cap[v]:
                    return parent, node, seen_in, seen_out
                continue
            m = bits[v] & arcs_in & ~seen_in
            seen_in |= m
            while m:
                b = m & -m
                m ^= b
                parent[2 * b.bit_length() - 2] = node
                queue.append(2 * b.bit_length() - 2)
        return parent, -1, seen_in, seen_out

    def _augment(self) -> bool:
        """Push one unit along a shortest augmenting path, if there is one.
        SetFlow's capacities put an arc of capacity one on every such path,
        so one unit is all a path carries."""
        parent, node, _, _ = self._search()
        if node < 0:
            return False
        through, fout, fin = self.through, self.fout, self.fin
        while node >= 0:
            prev = parent[node]
            v = node >> 1
            if node & 1:
                if prev == node - 1:
                    through[v] += 1
                else:  # reverse arc in(u) -> out(v) cancels v's unit into u
                    fout[v] ^= 1 << (prev >> 1)
                    fin[prev >> 1] ^= 1 << v
            elif prev == node + 1:
                through[v] -= 1
            elif prev >= 0:  # graph arc out(u) -> in(v)
                fout[prev >> 1] |= 1 << v
                fin[v] |= 1 << (prev >> 1)
            node = prev
        return True

    def max_flow(self, limit: int = INF) -> int:
        """Push flow until ``limit`` units went in or no augmenting path is
        left; returns the units pushed.

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

    ``source_cap=2`` lets each source vertex start two paths (the doubled
    variant).  ``uncuttable_targets=True`` gives target vertices infinite
    capacity so a minimum cut can never contain them.  The two together
    need sources and targets nonadjacent, so that no arc carries two units.
    """

    __slots__ = ("value",)

    def __init__(
        self,
        g: Graph,
        s,
        t,
        *,
        source_cap: int = 1,
        uncuttable_targets: bool = False,
    ):
        s, t = frozenset(s), frozenset(t)
        for v in s | t:
            g.check_vertex(v)
        self.bits = [g.neighbor_bits(v) for v in range(g.n)]
        self.sources = sorted(s)
        self.smask, self.tmask = mask_of(s), mask_of(t)
        self.cap = [1] * g.n
        for v in s - t:
            self.cap[v] = source_cap
        for v in t - s:
            self.cap[v] = INF if uncuttable_targets else 1
        if source_cap > 1 and uncuttable_targets and any(
            self.bits[v] & self.tmask & ~self.smask for v in s - t
        ):
            raise HypothesisViolatedError(
                "a source of capacity above one neighbours an uncuttable target"
            )
        self.through = [0] * g.n
        self.fout = [0] * g.n
        self.fin = [0] * g.n
        self.value = 0

    def run(self, limit: int = INF) -> int:
        self.value += self.max_flow(limit - self.value)
        return self.value

    def paths(self) -> list[tuple[int, ...]]:
        """Decompose the current flow into vertex paths, one per unit: a
        walk leaves its source along the lowest arc with a unit not yet
        walked, and stops at the first target.

        Source vertices with flow 2 yield two paths sharing only that start
        vertex.
        """
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
        limit.  A doubled source vertex in the cut counts with weight 2
        toward the cut value, which the caller accounts for."""
        _, hit, reach_in, reach_out = self._search()
        check_internal(hit < 0, "a minimum cut was asked of a flow that is not maximum")
        # a target's out node is entered only through spare capacity at the
        # target, which would reach the sink, so a stalled flow never gets there
        cut = (reach_in & ~reach_out) | (self.smask & ~reach_in)
        return tuple(mask_vertices(cut))


def pair_vertex_cut(g: Graph, x: int, y: int, limit: int = INF):
    """Maximum internally disjoint x-y paths for a nonadjacent pair and,
    when the maximum is below ``limit``, a minimum vertex cut separating
    them (never containing x or y).  Returns ``(value, cut_or_None)``."""
    if x == y or g.has_edge(x, y):
        raise HypothesisViolatedError(
            "a pair cut needs two distinct nonadjacent vertices", evidence=(x, y)
        )
    flow = SetFlow(g, (x,), (y,), source_cap=INF, uncuttable_targets=True)
    value = flow.run(limit)
    if value >= limit:
        return value, None
    cut = flow.cut_vertices()
    check_internal(len(cut) == value, "cut size must match the maximum flow")
    return value, cut
