from __future__ import annotations

import struct
import sys
from fractions import Fraction

import pytest

from minorforge.errors import HypothesisViolatedError
from minorforge.rng import _GOLDEN, _LANES, _LOW_WORDS, _MASK, Rng, _lanes, _mix, derive_seed

from rng_reference import ReferenceRng, plant_rejection


def test_known_answer_stream():
    # published splitmix64 reference outputs for seed 0
    r = Rng(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_below_range_and_determinism():
    r = Rng(123)
    vals = [r.below(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in vals)
    replay = Rng(123)
    assert vals == [replay.below(10) for _ in range(200)]
    assert len(set(vals)) == 10  # every residue shows up in 200 draws


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).below(0)


def test_bounds_counts_and_probabilities_are_read_through_the_intake():
    """A bound that is not an int, a negative sample size or coin count, and
    a probability that is not a rational, at any coin count, are refused
    with the value as evidence; a float probability is read as the rational
    it is and draws what that rational draws, one coin at a time or as a
    mask; no coins draw nothing."""
    for call, error, bad in (
        (lambda: Rng(1).below(2.5), ValueError, 2.5),
        (lambda: Rng(1).below(True), ValueError, True),
        (lambda: Rng(1).sample_with_replacement(range(3), -2), HypothesisViolatedError, -2),
        (lambda: Rng(1).sample_with_replacement(range(3), 1.5), HypothesisViolatedError, 1.5),
        (lambda: Rng(1).coin_mask(-1, Fraction(1, 2)), HypothesisViolatedError, -1),
        (lambda: Rng(1).bernoulli(None), HypothesisViolatedError, None),
        (lambda: Rng(1).bernoulli("half"), HypothesisViolatedError, "half"),
        (lambda: Rng(1).bernoulli([1, 2]), HypothesisViolatedError, [1, 2]),
        (lambda: Rng(1).coin_mask(3, None), HypothesisViolatedError, None),
        (lambda: Rng(1).coin_mask(3, "half"), HypothesisViolatedError, "half"),
        (lambda: Rng(1).coin_mask(0, None), HypothesisViolatedError, None),
        (lambda: Rng(1).coin_mask(0, "x"), HypothesisViolatedError, "x"),
        (lambda: Rng(1).coin_mask(0, [1, 2]), HypothesisViolatedError, [1, 2]),
    ):
        with pytest.raises(error) as info:
            call()
        assert info.value.evidence == bad and type(info.value.evidence) is type(bad)
    assert Rng(3).coin_mask(40, 0.5) == Rng(3).coin_mask(40, Fraction(1, 2))
    for p in (0.5, 0.3, 0.0, 1.0, -2.5):
        exact, floating = Rng(3), Rng(3)
        assert [floating.bernoulli(p) for _ in range(40)] == [
            exact.bernoulli(Fraction(p)) for _ in range(40)]
        assert floating.next_u64() == exact.next_u64()
    for p in ("1/2", Fraction(1, 3), 0.25, 0, 1):
        zero, fresh = Rng(3), Rng(3)
        assert zero.coin_mask(0, p) == 0 and zero.next_u64() == fresh.next_u64()


def test_choice_and_sample():
    r = Rng(5)
    seq = ["a", "b", "c"]
    assert r.choice(seq) in seq
    draw = Rng(5).sample_with_replacement(range(4), 6)
    assert len(draw) == 6
    assert all(v in range(4) for v in draw)
    assert draw == Rng(5).sample_with_replacement(range(4), 6)


def test_bernoulli_exact_edges():
    r = Rng(9)
    assert all(not r.bernoulli(Fraction(0)) for _ in range(20))
    assert all(r.bernoulli(Fraction(1)) for _ in range(20))
    hits = sum(Rng(9).spawn(i).bernoulli(Fraction(1, 2)) for i in range(400))
    assert 120 < hits < 280  # loose binomial sanity band


def test_shuffle_is_permutation():
    items = list(range(12))
    r = Rng(77)
    r.shuffle(items)
    assert sorted(items) == list(range(12))
    again = list(range(12))
    Rng(77).shuffle(again)
    assert items == again


def test_spawn_streams_differ():
    base = Rng(4)
    a = base.spawn(0).next_u64()
    b = base.spawn(1).next_u64()
    c = base.spawn(0).next_u64()
    assert a == c
    assert a != b


def test_derive_seed_stable_and_sensitive():
    s = derive_seed(6, 3, 1)
    assert s == derive_seed(6, 3, 1)
    assert s != derive_seed(6, 3, 0)
    assert s != derive_seed(6, 4, 1)
    assert 0 <= s < 1 << 64


def test_derive_seed_swaps_master_and_index_after_a_leading_zero():
    assert derive_seed(3, 0, 5) == derive_seed(5, 0, 3)
    assert derive_seed(1, 0, 2, 0) == derive_seed(2, 0, 1, 0)
    assert derive_seed(1, 5, 2, 0) != derive_seed(2, 5, 1, 0)


# -- the bulk draws against the one-draw-at-a-time reference ------------------

_PROBS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 20), Fraction(4, 5),
          Fraction(2, 7), Fraction(999, 1000)]
# a bound just above 2**63 rejects about half of all draws
_HALF_REJECTED = (1 << 63) + 1


def test_coin_mask_is_successive_bernoulli_draws():
    probs = _PROBS + [Fraction(1, _HALF_REJECTED), Fraction(3, 2), Fraction(-1, 2)]
    for i, p in enumerate(probs):
        # the last five widths span one to four batches of the lane kernel
        for width in (0, 1, 2, 63, 64, 65, 130,
                      _LANES - 1, _LANES, _LANES + 1, 2 * _LANES, 3 * _LANES + 5):
            seed = derive_seed(11, i, width)
            new, ref = Rng(seed), ReferenceRng(seed)
            want = sum(ref.bernoulli(p) << k for k in range(width))
            assert new.coin_mask(width, p) == want
            assert new.next_u64() == ref.next_u64()


def test_below_and_shuffle_match_the_reference():
    bounds = list(range(1, 71)) + [1 << 40, 3 << 61, _HALF_REJECTED, (1 << 64) - 1]
    for i, n in enumerate(bounds):
        new, ref = Rng(derive_seed(12, i)), ReferenceRng(derive_seed(12, i))
        assert [new.below(n) for _ in range(5)] == [ref.below(n) for _ in range(5)]
        assert new.next_u64() == ref.next_u64()
    for size in range(71):
        new, ref = Rng(derive_seed(13, size)), ReferenceRng(derive_seed(13, size))
        got, want = list(range(size)), list(range(size))
        new.shuffle(got)
        ref.shuffle(want)
        assert got == want
        assert new.next_u64() == ref.next_u64()


def test_planted_rejection_is_skipped_like_the_reference():
    # draw 3 of each stream below is 2**64 - 1, refused for bounds 7 and 1000
    seed = plant_rejection(3)
    assert ReferenceRng(seed).next_u64() != (1 << 64) - 1
    probe = ReferenceRng(seed)
    assert [probe.next_u64() for _ in range(4)][3] == (1 << 64) - 1
    for p in (Fraction(2, 7), Fraction(999, 1000)):
        new, ref = Rng(seed), ReferenceRng(seed)
        want = sum(ref.bernoulli(p) << k for k in range(10))
        assert new.coin_mask(10, p) == want
        # ten coins took eleven draws
        assert new._state == ref._state == (seed + 11 * _GOLDEN) & ((1 << 64) - 1)
        assert new.next_u64() == ref.next_u64()
    new, ref = Rng(seed), ReferenceRng(seed)
    assert [new.below(7) for _ in range(6)] == [ref.below(7) for _ in range(6)]
    assert new._state == ref._state == (seed + 7 * _GOLDEN) & ((1 << 64) - 1)
    # shuffling 10 items draws below(10), below(9), below(8), below(7), ...
    new, ref = Rng(seed), ReferenceRng(seed)
    got, want = list(range(10)), list(range(10))
    new.shuffle(got)
    ref.shuffle(want)
    assert got == want
    assert new._state == ref._state == (seed + 10 * _GOLDEN) & ((1 << 64) - 1)


# -- the lane kernel -------------------------------------------------------------


def test_lanes_are_successive_mixes():
    # states near the top of the range wrap inside the batch
    for state in (0, 1, 0x123456789ABCDEF, _MASK - _GOLDEN, _MASK):
        for w in (1, 2, _LANES - 1, _LANES):
            assert _lanes(state, w) == [_mix(state + (i + 1) * _GOLDEN) for i in range(w)]


def test_lane_words_do_not_depend_on_byte_order():
    # ``cast("Q")`` reads the host's order; struct's "<" and ">" stand in
    # for a little- and a big-endian host reading the bytes that the kernel
    # writes there
    lows = [_mix(7 + (i + 1) * _GOLDEN) for i in range(5)]
    packed = sum((((i + 3) << 64) | z) << (128 * i) for i, z in enumerate(lows))
    for order, code, step in (("little", "<", 2), ("big", ">", -2)):
        words = struct.unpack(f"{code}10Q", packed.to_bytes(80, order))
        assert list(words[::step]) == lows
    assert _LOW_WORDS == (2 if sys.byteorder == "little" else -2)


def test_half_rejected_coins_need_more_than_one_batch():
    # about half of each batch is refused, so the width takes further batches
    p = Fraction(1, _HALF_REJECTED)
    seed = derive_seed(16, 0)
    new, ref = Rng(seed), ReferenceRng(seed)
    assert new.coin_mask(_LANES, p) == sum(ref.bernoulli(p) << k for k in range(_LANES))
    draws = (new._state - seed) * pow(_GOLDEN, -1, 1 << 64) & _MASK
    assert _LANES < draws < 4 * _LANES
    assert new.next_u64() == ref.next_u64()


@pytest.mark.parametrize("k", [_LANES - 1, _LANES])
def test_planted_rejection_at_a_batch_edge_costs_one_draw(k):
    # draw _LANES - 1 closes the first batch, draw _LANES opens the second
    seed = plant_rejection(k)
    p = Fraction(2, 7)
    for width in (_LANES + 1, 2 * _LANES):
        new, ref = Rng(seed), ReferenceRng(seed)
        want = sum(ref.bernoulli(p) << i for i in range(width))
        assert new.coin_mask(width, p) == want
        assert new._state == ref._state == (seed + (width + 1) * _GOLDEN) & _MASK
        assert new.next_u64() == ref.next_u64()
