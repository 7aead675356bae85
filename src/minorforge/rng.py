"""Deterministic 64-bit random source.

All randomized operations in this package take an explicit Rng.  The
generator is SplitMix64, fixed once for the whole repository: the same seed
yields the same stream on every platform and Python version, which is what
makes report bytes reproducible.

``below``, ``coin_mask`` and ``shuffle`` run the SplitMix64 step of
``next_u64`` and ``_mix`` inline on a local copy of the state, with its
constants written out, and compute each rejection limit once per bound.
They consume the stream draw for draw as ``next_u64`` followed by the
rejection test would, so every later draw from the same Rng is unchanged.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_SPAN = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Child seed for a sweep cell: master XOR-folded with mixed indices.
    Since ``_mix(0) == 0``, a leading index 0 lets the master and the next
    index swap: ``derive_seed(3, 0, 5) == derive_seed(5, 0, 3)`` and
    ``derive_seed(1, 0, 2, 0) == derive_seed(2, 0, 1, 0)``.  A caller whose
    master varies must lead with a nonzero tag; changing the fold would
    move every seeded output."""
    s = master & _MASK
    for k in indices:
        s = _mix(s ^ _mix(k & _MASK))
    return s


class Rng:
    """SplitMix64 stream with unbiased integer draws."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection so the draw is unbiased."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n == 1:
            return 0
        limit = _SPAN - _SPAN % n
        state = self._state
        while True:
            state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            z ^= z >> 31
            if z < limit:
                self._state = state
                return z % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() from an empty sequence")
        return seq[self.below(len(seq))]

    def sample_with_replacement(self, seq, r: int) -> list:
        return [self.choice(seq) for _ in range(r)]

    def bernoulli(self, p: Fraction) -> bool:
        """Exact-probability coin: compares a uniform draw against p's terms."""
        if p <= 0:
            return False
        if p >= 1:
            return True
        return self.below(p.denominator) < p.numerator

    def coin_mask(self, width: int, p: Fraction) -> int:
        """``width`` coins of probability ``p`` as one mask: bit i is the
        i-th of ``width`` successive ``bernoulli(p)`` draws, and the stream
        is consumed exactly as those draws consume it (none at all when
        p <= 0 or p >= 1)."""
        if width <= 0 or p <= 0:
            return 0
        if p >= 1:
            return (1 << width) - 1
        num, den = p.numerator, p.denominator
        limit = _SPAN - _SPAN % den
        state = self._state
        out = 0
        bit = 1
        for _ in range(width):
            while True:
                state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                z ^= z >> 31
                if z < limit:
                    break
            if z % den < num:
                out |= bit
            bit <<= 1
        self._state = state
        return out

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the back, drawing ``below(i + 1)`` for each i."""
        state = self._state
        for i in range(len(items) - 1, 0, -1):
            n = i + 1
            limit = _SPAN - _SPAN % n
            while True:
                state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
                z ^= z >> 31
                if z < limit:
                    break
            j = z % n
            items[i], items[j] = items[j], items[i]
        self._state = state

    def spawn(self, *indices: int) -> "Rng":
        return Rng(derive_seed(self.seed, *indices))
