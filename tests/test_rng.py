from __future__ import annotations

from fractions import Fraction

import pytest

from minorforge.rng import _GOLDEN, Rng, derive_seed

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
        for width in (0, 1, 2, 63, 64, 65, 130):
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
