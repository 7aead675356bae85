"""Test-only reference: the one-draw-at-a-time generators that the bulk coin
masks replaced, kept verbatim apart from this docstring, the imports and the
class and function names.

``ReferenceRng`` draws through ``next_u64`` and the old ``below``,
``bernoulli`` and ``shuffle``; the two graph generators collect an edge list
with one ``bernoulli`` draw per pair.  ``test_rng.py`` and ``test_graph.py``
require the library to return the same values and leave the same state.
``plant_rejection`` inverts the SplitMix64 finaliser, so a test can put a
draw that a rejection loop must refuse at a chosen place in the stream.
"""

from __future__ import annotations

from fractions import Fraction

from minorforge.graph import Graph
from minorforge.rng import _GOLDEN, _MASK, Rng


class ReferenceRng(Rng):
    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection so the draw is unbiased."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n == 1:
            return 0
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def bernoulli(self, p: Fraction) -> bool:
        """Exact-probability coin: compares a uniform draw against p's terms."""
        if p <= 0:
            return False
        if p >= 1:
            return True
        return self.below(p.denominator) < p.numerator

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def reference_random_graph(n: int, p: Fraction, rng: Rng) -> Graph:
    """G(n,p): each pair independently, exact Bernoulli, pairs in sorted order."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0,1]")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.bernoulli(p):
                edges.append((u, v))
    return Graph(n, edges)


def reference_random_bipartite(a: int, b: int, p: Fraction, rng: Rng) -> Graph:
    """Random bipartite graph; side A is 0..a-1, side B is a..a+b-1."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0,1]")
    edges = []
    for u in range(a):
        for v in range(a, a + b):
            if rng.bernoulli(p):
                edges.append((u, v))
    return Graph(a + b, edges)


def _unshift(z: int, k: int) -> int:
    """Inverse of z ^ (z >> k) on 64 bits."""
    out = z
    for _ in range(64 // k + 1):
        out = z ^ (out >> k)
    return out


def unmix(z: int) -> int:
    """The SplitMix64 state whose output is ``z``."""
    z = _unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = _unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return _unshift(z, 30)


def plant_rejection(k: int) -> int:
    """A seed whose draw number ``k`` (from 0) is 2**64 - 1, which every
    rejection loop with a bound that is not a power of two refuses."""
    return (unmix(_MASK) - (k + 1) * _GOLDEN) & _MASK
