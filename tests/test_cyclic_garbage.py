"""The exact searches free what they build by reference counting alone:
they build no self-referencing closure, so a call leaves nothing for the
cyclic collector."""

from __future__ import annotations

import gc
from fractions import Fraction

from minorforge import (
    check_wovenness,
    chromatic_number_exact,
    is_chromatic_separable,
    random_graph,
)
from minorforge.rng import Rng, derive_seed

HALF = Fraction(1, 2)


def test_exact_searches_leave_no_cyclic_garbage():
    """With the collector off, wovenness, chi and separability on seeded
    hosts of the benchmark's shapes leave no unreachable object behind."""
    searches = {
        "check_wovenness": lambda rng: check_wovenness(
            random_graph(6, Fraction(5, 6), rng.spawn(1)), HALF, 2, 1),
        "chromatic_number_exact": lambda rng: chromatic_number_exact(
            random_graph(18 + rng.seed % 3, HALF, rng.spawn(2))),
        "is_chromatic_separable": lambda rng: is_chromatic_separable(
            random_graph(10, HALF, rng.spawn(3)), 1),
    }
    left = {}
    gc.collect()
    gc.disable()
    try:
        for name, search in searches.items():
            for i in range(4):
                search(Rng(derive_seed(61, i)))
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(searches, 0)
