"""The exact searches free what they build by reference counting alone:
they build no self-referencing closure, so a call leaves nothing for the
cyclic collector."""

from __future__ import annotations

import gc
from fractions import Fraction

from minorforge import (
    check_wovenness,
    chromatic_number_exact,
    find_linkage,
    is_chromatic_separable,
    random_graph,
)
from minorforge.extract import _search_small_minor
from minorforge.rng import Rng, derive_seed

HALF = Fraction(1, 2)


def test_exact_searches_leave_no_cyclic_garbage():
    """With the collector off, wovenness, chi, separability and linkage on
    seeded hosts of the benchmark's shapes, and the stuck-descent search on
    sparse patterns, leave no unreachable object behind."""
    searches = {
        "check_wovenness": lambda rng: check_wovenness(
            random_graph(6, Fraction(5, 6), rng.spawn(1)), HALF, 2, 1),
        "chromatic_number_exact": lambda rng: chromatic_number_exact(
            random_graph(18 + rng.seed % 3, HALF, rng.spawn(2))),
        "is_chromatic_separable": lambda rng: is_chromatic_separable(
            random_graph(10, HALF, rng.spawn(3)), 1),
        "find_linkage": lambda rng: find_linkage(
            random_graph(16 + rng.seed % 5, Fraction(1, 5), rng.spawn(4)),
            [(0, 1), (2, 3), (4, 5)]),
        "_search_small_minor": lambda rng: _search_small_minor(
            dict(enumerate(random_graph(7, Fraction(1, 3), rng.spawn(5))._bits)), 4),
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
