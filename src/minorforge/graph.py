"""Immutable simple graphs on vertices 0..n-1.

Adjacency is one bitmask per vertex: bit ``w`` of ``neighbor_bits(v)`` is set
when ``vw`` is an edge.  Every solver reads the masks, and the traversal
questions they ask (the neighbourhood of a set, what a set reaches inside
another, its components, a shortest path into a set) are the mask methods
below.  ``neighbors()`` builds a frozenset from the mask for callers outside
the package.  ``Graph(n, edges)`` checks an edge list; code that already
holds symmetric masks (the generators, induced subgraphs, model patterns)
builds through the trusted ``Graph._from_masks``.  Entry points that take
a vertex set read it through ``vertex_set``, which checks that every member
is an int in range.  All density comparisons are exact rational arithmetic
over Fraction; floats appear only where a parameter is sized from a log or
a root.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import (
    HypothesisViolatedError,
    MinorforgeError,
    NotAnEdgeError,
    OrderTooSmallError,
    UnknownVertexError,
    check_count,
    check_internal,
    check_rational,
)
from .rng import Rng


class Graph:
    __slots__ = ("n", "m", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        bits = [0] * check_count("the vertex count", n, 0, error=OrderTooSmallError)
        m = 0
        try:
            edges = iter(edges)
        except TypeError:
            raise NotAnEdgeError(f"{edges!r} is not an edge list", evidence=edges) from None
        for e in edges:
            try:  # a malformed item fails the unpack, a compare or a shift
                u, v = e
                if not (0 <= u < n and 0 <= v < n):
                    raise UnknownVertexError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise NotAnEdgeError(f"loop at {u} not allowed")
                if bits[u] >> v & 1:
                    continue
            except (TypeError, ValueError) as exc:
                if isinstance(exc, MinorforgeError):
                    raise
                raise NotAnEdgeError(f"{e!r} is not a pair of vertices", evidence=e) from None
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            m += 1
        self.n = n
        self.m = m
        self._bits = tuple(bits)

    @classmethod
    def _from_masks(cls, n: int, bits: Sequence[int]) -> "Graph":
        """Trusted constructor from one neighbour mask per vertex, for
        callers whose masks are symmetric by construction.  Checks in O(n)
        what costs nothing to check: one mask per vertex, no neighbour out
        of range, no loop, an even degree sum; ``audit`` checks the rest."""
        bits = tuple(bits)
        check_internal(len(bits) == n, "one mask per vertex")
        span = degsum = 0
        for b in bits:
            span |= b
            degsum += b.bit_count()
        check_internal(not span >> n, "a neighbour out of range")
        loop = next((v for v, b in enumerate(bits) if b >> v & 1), None)
        check_internal(loop is None, f"loop at {loop}")
        check_internal(degsum % 2 == 0, "odd degree sum")
        g = object.__new__(cls)
        g.n = n
        g.m = degsum // 2
        g._bits = bits
        return g

    # -- basic access ------------------------------------------------------

    def check_vertex(self, v: int) -> None:
        if v.__class__ is not int or not 0 <= v < self.n:
            raise UnknownVertexError(f"vertex {v!r} out of range for n={self.n}", evidence=v)

    def vertex_set(self, vertices: Iterable[int]) -> frozenset[int]:
        """``vertices`` as a frozenset, every member checked an int in range:
        the one intake for entry points' vertex sets.  An argument that is not
        iterable, or has an unhashable member, is refused with it as evidence."""
        try:
            out = frozenset(vertices)
        except TypeError:
            raise HypothesisViolatedError(
                f"{vertices!r} is not a set of vertices", evidence=vertices
            ) from None
        n = self.n
        for v in out:
            if v.__class__ is not int or not 0 <= v < n:
                self.check_vertex(v)  # raises, naming v
        return out

    def neighbors(self, v: int) -> frozenset[int]:
        self.check_vertex(v)
        return frozenset(mask_vertices(self._bits[v]))

    def neighbor_bits(self, v: int) -> int:
        return self._bits[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self._bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self._bits[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u, b in enumerate(self._bits)
            for v in mask_vertices(b >> (u + 1) << (u + 1))
        ]

    def min_degree(self) -> int:
        if self.n == 0:
            raise OrderTooSmallError("min_degree of the empty graph")
        return min(b.bit_count() for b in self._bits)

    def audit(self) -> None:
        """Structural self-check: masks in range, no loops, symmetry,
        handshake.  Raises InternalInfeasibleError, also under -O."""
        bits = self._bits
        check_internal(len(bits) == self.n, "one mask per vertex")
        degsum = 0
        for v, b in enumerate(bits):
            check_internal(not b >> self.n, f"vertex {v} has a neighbour out of range")
            check_internal(not b >> v & 1, f"loop at {v}")
            for w in mask_vertices(b):
                check_internal(bits[w] >> v & 1, f"asymmetric edge ({v},{w})")
            degsum += b.bit_count()
        check_internal(degsum == 2 * self.m, "handshake violated")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- mask traversal ----------------------------------------------------

    def neighborhood(self, mask: int) -> int:
        """Union of the neighbour masks of the vertices in ``mask``; it
        contains a vertex of ``mask`` exactly when that vertex has a
        neighbour in ``mask``."""
        bits = self._bits
        out = 0
        while mask:
            b = mask & -mask
            mask ^= b
            out |= bits[b.bit_length() - 1]
        return out

    def reach(self, start: int, within: int) -> int:
        """Vertices joined to ``start & within`` by paths inside ``within``."""
        seen = frontier = start & within
        while frontier:
            frontier = self.neighborhood(frontier) & within & ~seen
            seen |= frontier
        return seen

    def components_in(self, within: int) -> list[int]:
        """Components of the subgraph induced by ``within``, as masks
        ordered by least vertex."""
        out = []
        while within:
            comp = self.reach(within & -within, within)
            out.append(comp)
            within ^= comp
        return out

    def shortest_path(
        self, sources: int, targets: int, within: int
    ) -> tuple[int, ...] | None:
        """A shortest path from a vertex of ``sources`` to one of
        ``targets`` whose vertices after the first lie in ``within``,
        listed from its source; ``None`` when there is none.

        Breadth first with a FIFO queue: sources queued in ascending
        order, each vertex's unseen neighbours in ascending order, stopping
        at the first target discovered.  That tie-break fixes which of the
        shortest paths is returned.
        """
        hit = sources & targets
        if hit:
            return ((hit & -hit).bit_length() - 1,)
        bits = self._bits
        parent: dict[int, int] = {}
        queue = mask_vertices(sources)
        seen = sources
        for u in queue:  # the loop also visits what it appends: FIFO
            new = bits[u] & within & ~seen
            seen |= new
            while new:
                b = new & -new
                new ^= b
                w = b.bit_length() - 1
                parent[w] = u
                if b & targets:
                    path = [w]
                    while w in parent:
                        w = parent[w]
                        path.append(w)
                    return tuple(reversed(path))
                queue.append(w)
        return None

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.reach(1, full) == full


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def mask_vertices(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending.  Masks with more than a dozen
    set bits are read off their binary digits, least significant first;
    sparser ones are cheaper to peel one bit at a time."""
    if mask.bit_count() > 12:
        return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


# -- statistics -------------------------------------------------------------


def average_degree(g: Graph) -> Fraction:
    """2m/n, exact; the empty graph counts as 0."""
    if g.n == 0:
        return Fraction(0)
    return Fraction(2 * g.m, g.n)


def edge_density(g: Graph) -> Fraction:
    """m / C(n,2), exact."""
    if g.n < 2:
        raise OrderTooSmallError("edge density needs at least 2 vertices")
    return Fraction(g.m, g.n * (g.n - 1) // 2)


def is_eps_t_dense(g: Graph, eps: Fraction, t: int | None = None) -> bool:
    """True iff g has t vertices (default: all of them) and m >= (1-eps)*C(t,2).
    eps must lie in [0, 1), where the predicate can fail, and t be at least 2."""
    eps = check_rational("eps", eps, 1, "[)")
    if g.n < 2:
        raise OrderTooSmallError("density predicate needs at least 2 vertices")
    if t is not None and (g.n != t or t.__class__ is not int):
        check_count("t", t, 2)
        return False
    pairs = g.n * (g.n - 1) // 2
    return Fraction(g.m) >= (1 - eps) * pairs


def complement_max_degree(g: Graph) -> int:
    """Largest number of non-neighbors over all vertices: n - 1 - min degree."""
    return g.n - 1 - g.min_degree()


# -- derived graphs ---------------------------------------------------------


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the relabel map: new index i is old vertex map[i]."""
    old = sorted(g.vertex_set(keep))
    return _induced(g._bits, mask_of(old)), tuple(old)


def _induced(bits, kept: int) -> Graph:
    """The graph that rows ``bits[v]``, ``v`` in ``kept``, induce on
    ``kept``, its vertices renumbered 0.. in ascending order.  The kept
    vertices fall into maximal runs of consecutive ids, and each run moves
    down by one shift, so a row costs one step per run, not per neighbour."""
    runs, at, rest = [], 0, kept
    while rest:
        lo = (rest & -rest).bit_length() - 1
        width = ((rest >> lo) ^ (rest >> lo) + 1).bit_length() - 1
        runs.append((lo, (1 << width) - 1, at))
        at += width
        rest &= ~((1 << width) - 1 << lo)
    rows = []
    for v in mask_vertices(kept):
        b, row = bits[v], 0
        for lo, run, to in runs:
            row |= (b >> lo & run) << to
        rows.append(row)
    return Graph._from_masks(at, rows)


def greedy_dense_subgraph(g: Graph, t: int) -> tuple[int, ...]:
    """Peel minimum-degree vertices down to a t-subset; density never drops.

    Each deletion removes a vertex of degree <= average, so the survivor's
    exact density is >= the density before; checked at every step.
    """
    check_count("t", t, 2, g.n, OrderTooSmallError)
    alive = (1 << g.n) - 1
    deg = [b.bit_count() for b in g._bits]
    edges = g.m
    density = edge_density(g)
    for k in range(g.n - 1, t - 1, -1):
        v = min(mask_vertices(alive), key=lambda x: (deg[x], x))
        alive ^= 1 << v
        nbrs = g._bits[v] & alive
        edges -= nbrs.bit_count()
        for w in mask_vertices(nbrs):
            deg[w] -= 1
        new_density = Fraction(edges, k * (k - 1) // 2)
        check_internal(new_density >= density, "min-degree peel decreased density")
        density = new_density
    return tuple(mask_vertices(alive))


# -- generators -------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    check_count("the vertex count", n, 0, error=OrderTooSmallError)
    return Graph._from_masks(n, [((1 << n) - 1) ^ (1 << v) for v in range(n)])


def random_graph(n: int, p: Fraction, rng: Rng) -> Graph:
    """G(n,p): each pair independently, exact Bernoulli, pairs in sorted
    order.  One coin mask covers all pairs, so the stream is consumed
    exactly as one ``bernoulli`` draw per pair would.  Its coins fill the
    upper triangle of an n x n row-major matrix of digits, and vertex v's
    mask is row v (the pairs vw, w > v) joined with column v (the pairs
    uv, u < v)."""
    p = check_rational("p", p, 1, "[]")
    check_count("the vertex count", n, 0, error=OrderTooSmallError)
    coins = _coin_digits(n * (n - 1) // 2, p, rng)
    rows, at = [], 0
    for u in range(1, n + 1):
        rows.append("0" * u + coins[at:at + n - u])
        at += n - u
    mat = "".join(rows)
    return Graph._from_masks(
        n, [int(mat[v * n:v * n + n][::-1], 2) | int(mat[v::n][::-1], 2) for v in range(n)]
    )


def random_bipartite(a: int, b: int, p: Fraction, rng: Rng) -> Graph:
    """Random bipartite graph; side A is 0..a-1, side B is a..a+b-1.  Pairs
    are drawn in sorted order from one coin mask, read as an a x b row-major
    matrix: vertex u of A takes row u, vertex a + j of B takes column j."""
    p = check_rational("p", p, 1, "[]")
    check_count("side a", a, 0, error=OrderTooSmallError)
    check_count("side b", b, 0, error=OrderTooSmallError)
    if not (a and b):
        return Graph._from_masks(a + b, [0] * (a + b))
    mat = _coin_digits(a * b, p, rng)
    return Graph._from_masks(
        a + b,
        [int(mat[u * b:u * b + b][::-1], 2) << a for u in range(a)]
        + [int(mat[j::b][::-1], 2) for j in range(b)],
    )


def _coin_digits(width: int, p: Fraction, rng: Rng) -> str:
    """``rng.coin_mask(width, p)`` as a string of digits, coin k at index k."""
    return format(rng.coin_mask(width, p), f"0{width}b")[::-1]


def graph_from_edge_list(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    return Graph(n, edges)
