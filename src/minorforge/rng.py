"""Deterministic 64-bit random source.

All randomized operations in this package take an explicit Rng.  The
generator is SplitMix64, fixed once for the whole repository: the same seed
yields the same stream on every platform and Python version, which is what
makes report bytes reproducible.

``coin_mask`` draws through the lane kernel ``_lanes``.  The i-th draw
after a state mixes ``state + i * GOLDEN mod 2**64``, an arithmetic
progression, so ``_lanes`` runs the SplitMix64 finaliser on a batch of up
to ``_LANES`` draws at once, each in its own 128-bit lane of one Python
integer.  That is exact: a lane holds a 64-bit value, and a 64 x 64-bit
product fits in 128 bits, so nothing carries into the next lane; a shift
right brings the next lane's low bits only into the top of a lane, and the
64-bit mask after each step removes them.  ``coin_mask`` then keeps the
batch's draws below the rejection limit, in order, and asks for a further
batch of only as many draws as coins are still missing, so it consumes the
stream draw for draw as successive ``bernoulli`` draws would.

``below`` takes one bound per draw and draws through ``next_u64``, so the
SplitMix64 step is written once, in ``next_u64`` and ``_mix``; ``shuffle``
and ``choice`` draw through ``below``.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import OrderTooSmallError, check_count, check_rational

_MASK = (1 << 64) - 1
_SPAN = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15

# The lane kernel's batch size (a power of two) and its constants, one
# 128-bit lane per draw: a 1 in each lane, the 64-bit mask in each lane,
# and (i + 1) * GOLDEN mod 2**64 in lane i.
_LANES = 1024


def _ones_and_ramp() -> tuple[int, int]:
    """A 1 in each of ``_LANES`` lanes, and i + 1 in lane i, by doubling:
    lanes m..2m-1 are a copy of lanes 0..m-1, plus m in each for the ramp."""
    ones = ramp = m = 1
    while m < _LANES:
        ramp |= (ramp + m * ones) << (m << 7)
        ones |= ones << (m << 7)
        m <<= 1
    return ones, ramp


_ONES, _RAMP = _ones_and_ramp()
_LOW = _ONES * _MASK
_STEPS = _RAMP * _GOLDEN & _LOW
# The kernel writes its lanes in the host's byte order, so ``cast("Q")``
# reads every 64-bit word whole.  Little-endian puts lane 0 first, low word
# before high; big-endian puts lane 0 last, high word before low, so there
# the low words are every second word counted back from the end.
_LOW_WORDS = 2 if sys.byteorder == "little" else -2
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _lanes(state: int, w: int) -> list[int]:
    """The next ``w`` outputs (1 <= w <= _LANES) of a stream whose state is
    ``state``: ``[_mix(state + (i + 1) * _GOLDEN) for i in range(w)]``,
    computed in 128-bit lanes of one integer."""
    cut = (1 << (w << 7)) - 1
    low = _LOW & cut
    z = ((_STEPS & cut) + state * (_ONES & cut)) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    z ^= z >> 31  # bits above 63 of a lane stay unmasked: only low words are read
    return memoryview(z.to_bytes(w << 4, sys.byteorder)).cast("Q")[::_LOW_WORDS].tolist()


def derive_seed(master: int, *indices: int) -> int:
    """Child seed for a sweep cell: master XOR-folded with mixed indices.
    Since ``_mix(0) == 0``, a leading index 0 lets the master and the next
    index swap: ``derive_seed(3, 0, 5) == derive_seed(5, 0, 3)`` and
    ``derive_seed(1, 0, 2, 0) == derive_seed(2, 0, 1, 0)``.  A caller whose
    master varies must lead with a nonzero tag; changing the fold would
    move every seeded output."""
    s = check_count("the master seed", master, None) & _MASK
    for k in indices:
        s = _mix(s ^ _mix(check_count("an index", k, None) & _MASK))
    return s


class Rng:
    """SplitMix64 stream with unbiased integer draws."""

    def __init__(self, seed: int):
        self.seed = self._state = check_count("the seed", seed, None) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection so the draw is unbiased."""
        if n.__class__ is not int or n <= 1:  # one inline test on the draw path
            check_count("the bound", n, 1, error=OrderTooSmallError)
            return 0
        limit = _SPAN - _SPAN % n
        while True:
            z = self.next_u64()
            if z < limit:
                return z % n

    def choice(self, seq):
        """An item of ``seq``; an empty one is refused by ``below(0)``."""
        return seq[self.below(len(seq))]

    def sample_with_replacement(self, seq, r: int) -> list:
        return [self.choice(seq) for _ in range(check_count("the sample size", r, 0))]

    def bernoulli(self, p: Fraction) -> bool:
        """Exact-probability coin: compares a uniform draw against p's terms;
        a p without terms or compares is read through ``check_rational``."""
        try:
            if p <= 0:
                return False
            if p >= 1:
                return True
            num, den = p.numerator, p.denominator
        except (TypeError, AttributeError):  # not a number, or a float
            num, den = check_rational("p", p, 1).as_integer_ratio()
        return self.below(den) < num

    def coin_mask(self, width: int, p: Fraction) -> int:
        """``width`` coins of probability ``p``, read as ``bernoulli`` reads it,
        as one mask: bit i is the i-th of ``width`` successive ``bernoulli(p)``
        draws, and the stream is consumed exactly as those draws consume it
        (none at all when width is 0, p <= 0 or p >= 1)."""
        check_count("the coin count", width, 0)
        try:
            if p <= 0:
                return 0
            if p >= 1:
                return (1 << width) - 1
        except TypeError:  # not a number
            pass
        num, den = check_rational("p", p, 1).as_integer_ratio()
        if not width:
            return 0
        limit = _SPAN - _SPAN % den
        state = self._state
        kept = []
        left = width
        while left:
            # never more draws than coins missing, so none is drawn ahead
            w = min(left, _LANES)
            coins = bytes([z % den < num for z in _lanes(state, w) if z < limit])
            state = (state + w * _GOLDEN) & _MASK
            kept.append(coins)
            left -= len(coins)
        self._state = state
        return int(b"".join(kept)[::-1].translate(_DIGITS), 2)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the back, drawing ``below(i + 1)`` for each i."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def spawn(self, *indices: int) -> "Rng":
        return Rng(derive_seed(self.seed, *indices))
