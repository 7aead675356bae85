"""Test-only reference: the vertex-split flow network that ``minorforge.flow``
replaced, kept verbatim apart from this docstring and the import below.

It builds one list record per arc (Even-Tarjan's reduction) and a second
network shape for pair cuts; ``test_flow.py`` requires the bitmask engine to
return exactly what this code returns.
"""

from __future__ import annotations

from minorforge.graph import Graph

INF = 1 << 30

# edge record layout
_TO, _CAP, _REV, _FWD = 0, 1, 2, 3


class FlowNet:
    """Adjacency-list max-flow network with integer capacities."""

    __slots__ = ("adj",)

    def __init__(self, num_nodes: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v]), 1])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1, 0])

    def _augment(self, source: int, sink: int) -> int:
        """One BFS augmentation; returns the amount pushed (0 if none)."""
        parent_edge: list[tuple[int, int] | None] = [None] * len(self.adj)
        parent_edge[source] = (source, -1)
        queue = [source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if u == sink:
                break
            for idx, edge in enumerate(self.adj[u]):
                if edge[_CAP] > 0 and parent_edge[edge[_TO]] is None:
                    parent_edge[edge[_TO]] = (u, idx)
                    queue.append(edge[_TO])
        if parent_edge[sink] is None:
            return 0
        push = INF
        node = sink
        while node != source:
            prev, idx = parent_edge[node]
            push = min(push, self.adj[prev][idx][_CAP])
            node = prev
        node = sink
        while node != source:
            prev, idx = parent_edge[node]
            edge = self.adj[prev][idx]
            edge[_CAP] -= push
            self.adj[edge[_TO]][edge[_REV]][_CAP] += push
            node = prev
        return push

    def max_flow(self, source: int, sink: int, limit: int = INF) -> int:
        """Push flow until ``limit`` is reached or no augmenting path exists.

        A return value below ``limit`` certifies the flow is maximum, so the
        residual cut is then a true minimum cut.
        """
        total = 0
        while total < limit:
            pushed = self._augment(source, sink)
            if pushed == 0:
                break
            total += pushed
        assert total <= limit or limit == INF
        return min(total, limit)

    def residual_reachable(self, source: int) -> set[int]:
        seen = {source}
        queue = [source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for edge in self.adj[u]:
                if edge[_CAP] > 0 and edge[_TO] not in seen:
                    seen.add(edge[_TO])
                    queue.append(edge[_TO])
        return seen

    def flow_on(self, u: int, idx: int) -> int:
        """Net flow on forward edge ``adj[u][idx]`` (0 for reverse edges)."""
        edge = self.adj[u][idx]
        if not edge[_FWD]:
            return 0
        return self.adj[edge[_TO]][edge[_REV]][_CAP]


def _in(v: int) -> int:
    return 2 * v


def _out(v: int) -> int:
    return 2 * v + 1


class SetFlow:
    """Flow network for disjoint paths between two vertex sets.

    Paths follow the convention that no internal vertex lies in ``s | t``:
    source-set vertices accept no incoming graph edges and target-set
    vertices emit no outgoing ones.  That leaves the maximum number of such
    paths unchanged (any path family can be rerouted to one of this shape of
    equal size) while making every decomposed flow path well formed.

    ``source_cap=2`` lets each source vertex start two paths (the doubled
    variant).  ``uncuttable_targets=True`` gives target vertices infinite
    capacity so a minimum cut can never contain them.
    """

    def __init__(
        self,
        g: Graph,
        s,
        t,
        *,
        source_cap: int = 1,
        uncuttable_targets: bool = False,
    ):
        self.g = g
        self.s = frozenset(s)
        self.t = frozenset(t)
        self.source = 2 * g.n
        self.sink = 2 * g.n + 1
        net = FlowNet(2 * g.n + 2)
        tcap = INF if uncuttable_targets else 1
        for v in range(g.n):
            in_s = v in self.s
            in_t = v in self.t
            if in_s and in_t:
                # only the trivial one-vertex path may use it
                net.add_edge(self.source, _in(v), 1)
                net.add_edge(_in(v), _out(v), 1)
                net.add_edge(_out(v), self.sink, 1)
            elif in_s:
                net.add_edge(self.source, _in(v), source_cap)
                net.add_edge(_in(v), _out(v), source_cap)
            elif in_t:
                net.add_edge(_in(v), _out(v), tcap)
                net.add_edge(_out(v), self.sink, tcap)
            else:
                net.add_edge(_in(v), _out(v), 1)
        both = self.s & self.t
        for u, v in g.edges():
            for a, b in ((u, v), (v, u)):
                if a in self.t or b in self.s or a in both or b in both:
                    continue
                net.add_edge(_out(a), _in(b), INF)
        self.net = net
        self.value = 0

    def run(self, limit: int = INF) -> int:
        self.value += self.net.max_flow(self.source, self.sink, limit - self.value)
        return self.value

    def paths(self) -> list[tuple[int, ...]]:
        """Decompose the current flow into vertex paths, one per unit.

        Source vertices with flow 2 yield two paths sharing only that start
        vertex.
        """
        consumed: dict[tuple[int, int], int] = {}

        def flow_left(u: int, idx: int) -> int:
            return self.net.flow_on(u, idx) - consumed.get((u, idx), 0)

        out: list[tuple[int, ...]] = []
        last_split = 2 * self.g.n - 1
        for sidx in range(len(self.net.adj[self.source])):
            for _ in range(flow_left(self.source, sidx)):
                consumed[(self.source, sidx)] = consumed.get((self.source, sidx), 0) + 1
                node = self.net.adj[self.source][sidx][_TO]
                path: list[int] = []
                steps = 0
                while node != self.sink:
                    steps += 1
                    assert steps <= 4 * self.g.n + 4, "flow decomposition wandered"
                    advanced = False
                    for idx2, e2 in enumerate(self.net.adj[node]):
                        if e2[_FWD] and flow_left(node, idx2) > 0:
                            if node % 2 == 0 and e2[_TO] == node + 1 and node <= last_split:
                                path.append(node // 2)
                            consumed[(node, idx2)] = consumed.get((node, idx2), 0) + 1
                            node = e2[_TO]
                            advanced = True
                            break
                    assert advanced, "flow conservation violated in decomposition"
                out.append(tuple(path))
        return out

    def cut_vertices(self) -> tuple[int, ...]:
        """Vertices of a minimum cut; valid once ``run`` stalled below its
        limit.  A doubled source vertex in the cut counts with weight 2
        toward the cut value, which the caller accounts for."""
        reach = self.net.residual_reachable(self.source)
        cut: set[int] = set()
        for v in range(self.g.n):
            if _in(v) in reach and _out(v) not in reach:
                cut.add(v)
        for sidx, edge in enumerate(self.net.adj[self.source]):
            if edge[_TO] not in reach:
                cut.add(edge[_TO] // 2)
        for v in self.t:
            if _out(v) in reach:
                cut.add(v)
        return tuple(sorted(cut))


def pair_vertex_cut(g: Graph, x: int, y: int, limit: int = INF):
    """Maximum internally disjoint x-y paths for a nonadjacent pair and,
    when the maximum is below ``limit``, a minimum vertex cut separating
    them (never containing x or y).  Returns ``(value, cut_or_None)``."""
    assert x != y and not g.has_edge(x, y)
    net = FlowNet(2 * g.n)
    for v in range(g.n):
        if v != x and v != y:
            net.add_edge(_in(v), _out(v), 1)
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            if a == y or b == x:
                continue
            net.add_edge(_out(a), _in(b), INF)
    source, sink = _out(x), _in(y)
    value = net.max_flow(source, sink, limit)
    if value >= limit:
        return value, None
    reach = net.residual_reachable(source)
    cut = tuple(
        sorted(
            v
            for v in range(g.n)
            if v not in (x, y) and _in(v) in reach and _out(v) not in reach
        )
    )
    assert len(cut) == value, "cut size must match the maximum flow"
    return value, cut
