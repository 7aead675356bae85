"""One intake for vertex sets: every entry point that accepts a set of
vertices reads it through ``Graph.vertex_set``, so a vertex out of range
raises ``UnknownVertexError`` naming it, and no other module checks vertices
one by one."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from minorforge import (
    MinorModel,
    UnknownVertexError,
    attached_model_search,
    bipartite_random_contraction,
    build_dense_minor_bipartite,
    complete_graph,
    connect_within,
    find_linkage,
    find_separation_avoiding,
    hitting_set_check,
    induced_subgraph,
    is_attached_to,
    is_rooted_at,
    knit_connect,
    menger,
    random_bipartite,
    realize_woven_from_dense_minor,
    sample_hitting_set,
)
from minorforge.errors import HypothesisViolatedError
from minorforge.flow import SetFlow
from minorforge.rng import Rng

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minorforge"

N = 16
HALF = list(range(N // 2))
REST = list(range(N // 2, N))
K88 = random_bipartite(N // 2, N // 2, Fraction(1), Rng(0))  # sides HALF and REST

# each entry takes the host and one vertex out of its range
ENTRY_POINTS = {
    "hitting_set_check": lambda g, x: hitting_set_check(g, {0, x}, [], Fraction(1, 2), 5),
    "sample_hitting_set": lambda g, x: sample_hitting_set(
        g, [{0, x}], 2, Fraction(1, 2), N, Rng(0)
    ),
    "connect_within": lambda g, x: connect_within(g, {0, x}),
    "bipartition side a": lambda g, x: bipartite_random_contraction(
        g, HALF + [x], REST, 0, {N - 1}, Rng(0)
    ),
    "bipartite roots": lambda g, x: bipartite_random_contraction(
        K88, HALF, REST, 0, {N - 1, x}, Rng(0)
    ),
    "bipartition side b": lambda g, x: build_dense_minor_bipartite(
        g, HALF, REST + [x], Fraction(1, 5), 2, Fraction(1, 8), Rng(0)
    ),
    "SetFlow": lambda g, x: SetFlow(g, {0}, {1, x}),
    "menger": lambda g, x: menger(g, {0}, {1, x}, 1),
    "knit_connect": lambda g, x: knit_connect(g, {0, x}, [(0,), (x,)]),
    "find_linkage": lambda g, x: find_linkage(g, [(0, 1), (2, x)]),
    "separation roots": lambda g, x: find_separation_avoiding(g, {0, x}, 1, [{1}], 0),
    "separation sets": lambda g, x: find_separation_avoiding(g, {0}, 1, [{1}, {2, x}], 0),
    "attached roots": lambda g, x: attached_model_search(g, {0, x}, [{1}, {2}], 0),
    "attached sets": lambda g, x: attached_model_search(g, {0}, [{1}, {2}, {x}], 0),
    "realize_woven": lambda g, x: realize_woven_from_dense_minor(
        g, Fraction(1, 2), 2, ((0, x), range(1, 7), range(7, 13))
    ),
    "induced_subgraph": lambda g, x: induced_subgraph(g, [0, x]),
    "is_rooted_at": lambda g, x: is_rooted_at(MinorModel(g, [[0], [1]]), [0, x]),
    "is_attached_to": lambda g, x: is_attached_to(MinorModel(g, [[0], [1]]), [0, x]),
}


@pytest.mark.parametrize("bad", [-1, N, 1.5])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_entry_point_names_a_vertex_out_of_range(name, bad):
    """Out of range, or a float inside it: the intake names the member
    rather than letting a later shift raise a bare ``TypeError``."""
    with pytest.raises(UnknownVertexError, match=rf"^vertex {bad} out of range for n={N}$") as info:
        ENTRY_POINTS[name](complete_graph(N), bad)
    assert info.value.evidence == bad and type(info.value.evidence) is type(bad)


def test_disjoint_sets_check_each_set_nonempty_before_range():
    g = complete_graph(N)
    with pytest.raises(HypothesisViolatedError, match="nonempty"):
        find_separation_avoiding(g, {0}, 1, [{1}, set(), {N}], 0)
    with pytest.raises(UnknownVertexError, match=f"vertex {N} "):
        find_separation_avoiding(g, {0}, 1, [{1}, {N}, set()], 0)


# probe on K5 -> (call, the evidence it must carry, the message it must give)
MALFORMED = {
    "menger, an int for s": (lambda g: menger(g, 3, [1], 1), 3, "3 is not a set of vertices"),
    "induced_subgraph, an int": (lambda g: induced_subgraph(g, 3), 3, "3 is not a set of vertices"),
    "connect_within, None": (lambda g: connect_within(g, None), None,
                             "None is not a set of vertices"),
    "find_linkage, an int item": (lambda g: find_linkage(g, [5]), 5, "5 is not iterable"),
    "find_linkage, None": (lambda g: find_linkage(g, None), None, "None is not iterable"),
    "find_linkage, list endpoints": (lambda g: find_linkage(g, [([0], [1])]), [[0], [1]],
                                     r"\[\[0\], \[1\]\] is not a set of vertices"),
    "knit_connect, an int part": (lambda g: knit_connect(g, {0, 1}, [5]), 5, "5 is not iterable"),
    "knit_connect, a list member": (lambda g: knit_connect(g, {0, 1}, [[[0], 1]]), ([0], 1),
                                    r"\(\[0\], 1\) is not a set of vertices"),
    "separation sets, an int set": (lambda g: find_separation_avoiding(g, {0}, 1, [5], 0), [5],
                                    r"\[5\] is not a family of vertex sets"),
    "separation sets, None": (lambda g: find_separation_avoiding(g, {0}, 1, None, 0), None,
                              "None is not a family of vertex sets"),
    "attached sets, an int set": (lambda g: attached_model_search(g, {0}, [5], 0), [5],
                                  r"\[5\] is not a family of vertex sets"),
    "hitting_set_check, an int set": (lambda g: hitting_set_check(g, {0}, [5], Fraction(1, 2), 5),
                                      [5], r"\[5\] is not a family of vertex sets"),
    "MinorModel, an int fragment": (lambda g: MinorModel(g, [5]).pattern, [5],
                                    r"\[5\] is not a family of vertex sets"),
    "MinorModel, None": (lambda g: MinorModel(g, None).pattern, None,
                         "None is not a family of vertex sets"),
    "is_rooted_at, an int": (lambda g: is_rooted_at(MinorModel(g, [[0]]), 3), 3,
                             "3 is not a set of vertices"),
    "is_attached_to, an int": (lambda g: is_attached_to(MinorModel(g, [[0]]), 3), 3,
                               "3 is not a set of vertices"),
    "bipartite_random_contraction, an int root set": (
        lambda g: bipartite_random_contraction(K88, HALF, REST, 0, 3, Rng(0)), 3,
        "3 is not a set of vertices"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_vertex_sets_and_items_are_refused_by_name(name):
    """A vertex set that is not iterable or has an unhashable member, a
    linkage pair or knit part that is not iterable, and a family of vertex
    sets that is not iterable or has a member that is not a set, raise
    ``HypothesisViolatedError`` naming it, not a bare ``TypeError``."""
    run, evidence, message = MALFORMED[name]
    with pytest.raises(HypothesisViolatedError, match=f"^{message}$") as info:
        run(complete_graph(5))
    assert type(info.value) is HypothesisViolatedError and info.value.evidence == evidence


def _checks_in_loops(tree: ast.AST) -> list[int]:
    """Lines of ``check_vertex`` calls inside a loop or a comprehension."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp)
    return sorted({
        inner.lineno
        for node in ast.walk(tree) if isinstance(node, loops)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Attribute)
        and inner.func.attr == "check_vertex"
    })


def test_only_graph_checks_vertices_one_by_one():
    found = {
        path.name: _checks_in_loops(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "graph.py"
    }
    assert not {k: v for k, v in found.items() if v}, "use Graph.vertex_set"
    assert _checks_in_loops(ast.parse((PACKAGE / "graph.py").read_text(encoding="utf-8")))
