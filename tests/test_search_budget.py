"""Every exact search stops at its node budget with a typed error, and the
error carries the nodes spent as evidence."""

from __future__ import annotations

from fractions import Fraction

import pytest

import minorforge.coloring as coloring
import minorforge.extract as extract
import minorforge.paths as paths
import minorforge.woven as woven
from minorforge import complete_graph, graph_from_edge_list
from minorforge.errors import ExtractionFailedError, TooLargeError

from conftest import petersen

NODES = 5

# the 3x3 grid: its opposite corners cannot be linked across each other
_GRID = graph_from_edge_list(
    9, [(v, v + 1) for v in range(8) if v % 3 != 2] + [(v, v + 3) for v in range(6)]
)
_PATH = graph_from_edge_list(6, [(i, i + 1) for i in range(5)])

# search -> (module whose SEARCH_NODES it reads, typed error, call)
SEARCHES = {
    "linkage": (paths, TooLargeError, lambda: paths.find_linkage(_GRID, [(0, 8), (2, 6)])),
    # a path has no minor of min degree 2, so the fallback searches every state
    "extraction fallback": (
        extract, ExtractionFailedError,
        lambda: extract._search_small_minor(dict(enumerate(_PATH._bits)), 4),
    ),
    "wovenness": (
        woven, TooLargeError,
        lambda: woven.check_wovenness(complete_graph(4), Fraction(1, 2), 2, 1),
    ),
    "colouring": (coloring, TooLargeError, lambda: coloring.chromatic_number_exact(petersen())),
    "separability": (
        coloring, TooLargeError, lambda: coloring.is_chromatic_separable(complete_graph(6), 2)
    ),
}


@pytest.mark.parametrize("search", list(SEARCHES))
def test_each_search_stops_at_its_budget(monkeypatch, search):
    module, error, run = SEARCHES[search]
    run()  # finishes within the default budget
    monkeypatch.setattr(module, "SEARCH_NODES", NODES)
    with pytest.raises(error, match="budget exhausted") as info:
        run()
    assert info.value.evidence == NODES
