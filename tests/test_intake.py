"""One intake for counts and rationals: every export reads its integer and
rational parameters through ``errors.check_count`` and
``errors.check_rational``, so a malformed value (not a number of that kind,
a ``bool``, or out of range) raises a typed error that carries the value as
``evidence``, and no other module checks such a parameter by hand."""

from __future__ import annotations

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import minorforge
from minorforge import (
    Graph,
    HypothesisViolatedError,
    MinorModel,
    NotAnEdgeError,
    OrderTooSmallError,
    Rng,
    UnknownVertexError,
    attached_model_search,
    bipartite_random_contraction,
    build_dense_minor,
    build_dense_minor_bipartite,
    build_dense_minor_in_dense_graph,
    check_wovenness,
    complete_graph,
    degree_target,
    dense_connected_minor,
    derive_seed,
    find_linkage,
    find_separation_avoiding,
    graph_from_edge_list,
    greedy_dense_subgraph,
    hitting_set_check,
    is_chromatic_separable,
    is_eps_t_dense,
    k_connected_subgraph,
    mader_min_degree_minor,
    menger,
    pair_vertex_cut,
    power_hypothesis,
    random_bipartite,
    random_graph,
    realize_woven_from_dense_minor,
    rooted_from_minor,
    sample_hitting_set,
    serialize_graph,
    to_dot,
    undominated_bound,
    vertex_connectivity_with_cutset,
)
from minorforge.errors import check_count, check_rational

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minorforge"

HVE = HypothesisViolatedError
HALF = Fraction(1, 2)
K5 = complete_graph(5)
P5 = graph_from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
K44 = random_bipartite(4, 4, Fraction(1), Rng(0))
SIDES = (range(4), range(4, 8))
FOREIGN = MinorModel(complete_graph(3), [[0]])
NOT_RATIONAL = None  # Fraction(None) raises TypeError

# (export, parameter) -> (error, call taking the bad value, bad values): a
# non-integer or non-rational, a bool (the one in range where there is
# one), a value below the range, and one above it where it has an end
ROWS = {
    ("Graph", "n"): (OrderTooSmallError, lambda v: Graph(v, []), (3.5, True, -1)),
    ("graph_from_edge_list", "n"): (
        OrderTooSmallError, lambda v: graph_from_edge_list(v, []), (3.5, True, -1)),
    ("complete_graph", "n"): (OrderTooSmallError, complete_graph, (2.5, True, -1)),
    ("random_graph", "n"): (
        OrderTooSmallError, lambda v: random_graph(v, HALF, Rng(0)), (2.5, True, -1)),
    ("random_graph", "p"): (
        HVE, lambda v: random_graph(4, v, Rng(0)),
        (NOT_RATIONAL, True, Fraction(-1, 10), Fraction(11, 10))),
    ("random_bipartite", "a"): (
        OrderTooSmallError, lambda v: random_bipartite(v, 2, HALF, Rng(0)), (1.5, True, -1)),
    ("random_bipartite", "b"): (
        OrderTooSmallError, lambda v: random_bipartite(2, v, HALF, Rng(0)), (1.5, True, -1)),
    ("random_bipartite", "p"): (
        HVE, lambda v: random_bipartite(2, 2, v, Rng(0)), (NOT_RATIONAL, True, -1, 2)),
    ("greedy_dense_subgraph", "t"): (
        OrderTooSmallError, lambda v: greedy_dense_subgraph(K5, v), (2.5, True, 1, 6)),
    ("is_eps_t_dense", "eps"): (
        HVE, lambda v: is_eps_t_dense(K5, v), (NOT_RATIONAL, False, -1, 1, 2)),
    ("is_eps_t_dense", "t"): (HVE, lambda v: is_eps_t_dense(K5, HALF, v), (5.0, 2.5, True, 1)),
    ("serialize_graph", "side_a"): (HVE, lambda v: serialize_graph(K5, v), (1.5, True, -1, 6)),
    ("Rng", "seed"): (HVE, Rng, (1.5, True)),
    ("derive_seed", "master"): (HVE, lambda v: derive_seed(v, 2), (1.5, True)),
    ("derive_seed", "indices"): (HVE, lambda v: derive_seed(1, 0, v), (1.5, True)),
    ("hitting_set_check", "eps"): (
        HVE, lambda v: hitting_set_check(K5, {0}, [], v, 5), (NOT_RATIONAL, True, 0, 1)),
    ("hitting_set_check", "undominated_cap"): (
        HVE, lambda v: hitting_set_check(K5, {0}, [], HALF, v), (1.5, True, -1)),
    ("sample_hitting_set", "r"): (
        HVE, lambda v: sample_hitting_set(K5, [], v, HALF, 5, Rng(0)), (1.5, True, 0)),
    ("sample_hitting_set", "eps"): (
        HVE, lambda v: sample_hitting_set(K5, [], 2, v, 5, Rng(0)), (NOT_RATIONAL, True, 0, 1)),
    ("sample_hitting_set", "n"): (
        HVE, lambda v: sample_hitting_set(K5, [], 2, HALF, v, Rng(0)), (5.5, True, 4, 31)),
    ("sample_hitting_set", "max_attempts"): (
        HVE, lambda v: sample_hitting_set(K5, [], 2, HALF, 5, Rng(0), max_attempts=v),
        (1.5, True, 0)),
    ("build_dense_minor", "eps"): (
        HVE, lambda v: build_dense_minor(K5, v, 3, HALF, Rng(0)),
        (NOT_RATIONAL, True, 0, Fraction(1, 3))),
    ("build_dense_minor", "t"): (
        HVE, lambda v: build_dense_minor(K5, Fraction(1, 4), v, HALF, Rng(0)), (2.5, True, 1)),
    ("build_dense_minor", "c_scale"): (
        HVE, lambda v: build_dense_minor(K5, Fraction(1, 4), 3, v, Rng(0)),
        (NOT_RATIONAL, True, 0)),
    ("build_dense_minor", "max_attempts"): (
        HVE, lambda v: build_dense_minor(K5, Fraction(1, 4), 3, HALF, Rng(0), max_attempts=v),
        (1.5, True, 0)),
    ("build_dense_minor_in_dense_graph", "eps"): (
        HVE, lambda v: build_dense_minor_in_dense_graph(K5, v, 2, Rng(0)),
        (NOT_RATIONAL, True, 0, 1)),
    ("build_dense_minor_in_dense_graph", "t"): (
        HVE, lambda v: build_dense_minor_in_dense_graph(K5, HALF, v, Rng(0)), (2.5, True, 1)),
    ("build_dense_minor_in_dense_graph", "max_attempts"): (
        HVE, lambda v: build_dense_minor_in_dense_graph(K5, HALF, 2, Rng(0), max_attempts=v),
        (1.5, True, 0)),
    ("build_dense_minor_bipartite", "eps"): (
        HVE, lambda v: build_dense_minor_bipartite(K44, *SIDES, v, 2, HALF, Rng(0)),
        (NOT_RATIONAL, True, 0, Fraction(1, 3))),
    ("build_dense_minor_bipartite", "t"): (
        HVE, lambda v: build_dense_minor_bipartite(K44, *SIDES, Fraction(1, 4), v, HALF, Rng(0)),
        (2.5, True, 1)),
    ("build_dense_minor_bipartite", "c_scale"): (
        HVE, lambda v: build_dense_minor_bipartite(K44, *SIDES, Fraction(1, 4), 2, v, Rng(0)),
        (NOT_RATIONAL, True, 0)),
    ("build_dense_minor_bipartite", "max_attempts"): (
        HVE, lambda v: build_dense_minor_bipartite(
            K44, *SIDES, Fraction(1, 4), 2, HALF, Rng(0), max_attempts=v),
        (1.5, True, 0)),
    ("bipartite_random_contraction", "u0"): (
        UnknownVertexError, lambda v: bipartite_random_contraction(K44, *SIDES, v, {4}, Rng(0)),
        (1.5, True, -1, 8)),
    ("degree_target", "eps"): (
        HVE, lambda v: degree_target(v, 2, 1), (NOT_RATIONAL, True, 0, 1)),
    ("degree_target", "t"): (HVE, lambda v: degree_target(HALF, v, 1), (2.5, True, 1)),
    ("degree_target", "c_scale"): (
        HVE, lambda v: degree_target(HALF, 2, v), (NOT_RATIONAL, True, 0)),
    ("power_hypothesis", "eps"): (
        HVE, lambda v: power_hypothesis(v, 2, Fraction(1, 4)), (NOT_RATIONAL, True, 0)),
    ("power_hypothesis", "r"): (
        HVE, lambda v: power_hypothesis(HALF, v, Fraction(1, 4)), (1.5, True, 0)),
    ("power_hypothesis", "base"): (
        HVE, lambda v: power_hypothesis(HALF, 2, v), (NOT_RATIONAL, True, Fraction(-1, 3))),
    ("undominated_bound", "eps"): (
        HVE, lambda v: undominated_bound(v, 2, 10), (NOT_RATIONAL, True, 0, 1)),
    ("undominated_bound", "r"): (HVE, lambda v: undominated_bound(HALF, v, 10), (1.5, True, 0)),
    ("undominated_bound", "n"): (HVE, lambda v: undominated_bound(HALF, 2, v), (1.5, True, -1)),
    ("is_chromatic_separable", "m"): (
        HVE, lambda v: is_chromatic_separable(K5, v), (1.5, True, -1)),
    ("pair_vertex_cut", "limit"): (
        HVE, lambda v: pair_vertex_cut(K5, 0, 1, limit=v), (1.5, True, -1)),
    ("pair_vertex_cut", "x"): (
        UnknownVertexError, lambda v: pair_vertex_cut(P5, v, 4), (1.5, True, -1, 5)),
    ("pair_vertex_cut", "y"): (
        UnknownVertexError, lambda v: pair_vertex_cut(P5, 0, v), (1.5, True, -1, 5)),
    ("vertex_connectivity_with_cutset", "limit"): (
        HVE, lambda v: vertex_connectivity_with_cutset(P5, v), (1.5, True, -1)),
    ("mader_min_degree_minor", "d"): (
        HVE, lambda v: mader_min_degree_minor(K5, v), (2.5, True, 1)),
    ("dense_connected_minor", "d"): (
        HVE, lambda v: dense_connected_minor(K5, v), (2.5, True, 1)),
    ("k_connected_subgraph", "k"): (
        HVE, lambda v: k_connected_subgraph(K5, v), (1.5, True, 0)),
    ("menger", "k"): (HVE, lambda v: menger(K5, [0], [1], v), (1.5, True, -1)),
    ("find_separation_avoiding", "t_order"): (
        HVE, lambda v: find_separation_avoiding(K5, {0}, v, [{1}], 0), (1.5, True, -1, [1])),
    ("find_separation_avoiding", "n_avoid"): (
        HVE, lambda v: find_separation_avoiding(K5, {0}, 1, [{1}], v), (1.5, True, -1)),
    ("attached_model_search", "n_avoid"): (
        HVE, lambda v: attached_model_search(K5, {0}, [{1}, {2}, {3}], v), (1.5, True, -1)),
    ("rooted_from_minor", "n_avoid"): (
        HVE, lambda v: rooted_from_minor(K5, {0}, MinorModel(K5, [[1], [2], [3]]), v),
        (1.5, True, -1)),
    ("check_wovenness", "eps"): (
        HVE, lambda v: check_wovenness(K5, v, 1, 1), (NOT_RATIONAL, True, 0, 1)),
    ("check_wovenness", "a"): (
        HVE, lambda v: check_wovenness(K5, HALF, v, 1), (1.5, True, 0, 6)),
    ("check_wovenness", "b"): (
        HVE, lambda v: check_wovenness(K5, HALF, 1, v), (0.5, False, -1, 6)),
    ("realize_woven_from_dense_minor", "eps"): (
        HVE, lambda v: realize_woven_from_dense_minor(K5, v, 2, ((0, 1), (), ())),
        (NOT_RATIONAL, True, 0, 1)),
    ("realize_woven_from_dense_minor", "a"): (
        HVE, lambda v: realize_woven_from_dense_minor(K5, HALF, v, ((0, 1), (), ())),
        (2.5, True, 1)),
}

# exported names whose int or rational parameters need no row, and why
EXEMPT = {
    "HittingSetResult": "a result record that the sampler fills in",
    "WovenReport": "a result record that check_wovenness fills in",
}

# malformed inputs that are not a count or a rational:
# label -> (error, call, evidence)
PROBES = {
    "find_separation_avoiding(g, [0], [1], 1.5, 1)": (
        HVE, lambda: find_separation_avoiding(K5, [0], [1], 1.5, 1), [1]),
    "is_eps_t_dense(g, 2, 10)": (HVE, lambda: is_eps_t_dense(K5, 2, 10), 2),
    "to_dot of a model in another host": (HVE, lambda: to_dot(K5, FOREIGN), FOREIGN),
    "Graph with a triple": (NotAnEdgeError, lambda: Graph(3, [(0, 1, 2)]), (0, 1, 2)),
    "Graph with a string vertex": (NotAnEdgeError, lambda: Graph(3, [(0, "a")]), (0, "a")),
    "Graph with a float vertex": (NotAnEdgeError, lambda: Graph(3, [(0, 1.5)]), (0, 1.5)),
    "Graph with no edge list": (NotAnEdgeError, lambda: Graph(3, None), None),
    "graph_from_edge_list with an int": (NotAnEdgeError, lambda: graph_from_edge_list(3, 5), 5),
    "find_linkage with a triple": (HVE, lambda: find_linkage(K5, [(0, 1, 2)]), (0, 1, 2)),
    "find_linkage with a string vertex": (
        UnknownVertexError, lambda: find_linkage(K5, [(0, "a")]), "a"),
    "MinorModel with a string vertex": (
        UnknownVertexError, lambda: MinorModel(K5, [["a"]]).pattern, "a"),
    "MinorModel with a float vertex": (
        UnknownVertexError, lambda: MinorModel(K5, [[1.5]]).pattern, 1.5),
}

NUMERIC = {"int", "int | None", "Fraction", "Fraction | None"}
NUMBER_TYPES = {"int", "float", "bool", "Fraction", "Integral", "Rational", "Real", "Number"}


def _raises_with(error, call, bad):
    with pytest.raises(error) as info:
        call()
    assert info.value.evidence == bad and type(info.value.evidence) is type(bad)


@pytest.mark.parametrize("key", sorted(ROWS), ids=".".join)
def test_each_count_and_rational_is_refused_with_its_value(key):
    error, call, bads = ROWS[key]
    for bad in bads:
        _raises_with(error, lambda: call(bad), bad)


@pytest.mark.parametrize("label", sorted(PROBES))
def test_malformed_items_raise_a_typed_error_naming_them(label):
    _raises_with(*PROBES[label])


def test_the_helpers_keep_the_messages_the_command_line_prints():
    for call, message in (
        (lambda: check_count("t", 1, 2), "t must be at least 2"),
        (lambda: check_rational("eps", HALF, Fraction(1, 3)),
         "eps must lie strictly between 0 and 1/3"),
        (lambda: check_rational("the scale constant", 0), "the scale constant must be positive"),
    ):
        with pytest.raises(HVE) as info:
            call()
        assert str(info.value) == message


def test_valid_values_come_back_as_read():
    assert check_count("t", 3, 2, 3) == 3
    assert check_count("seed", -5, None) == -5
    assert check_rational("eps", "1/4", 1) == Fraction(1, 4)
    assert check_rational("p", 1, 1, "[]") == 1
    assert check_rational("eps", 0.5, 1) == HALF


def _numeric_parameters() -> set[tuple[str, str]]:
    """(export, parameter) for every int or rational parameter of a
    function or class that ``minorforge/__init__.py`` exports."""
    out = set()
    for name in dir(minorforge):
        obj = getattr(minorforge, name)
        if name.startswith("_") or not callable(obj) or (
            isinstance(obj, type) and issubclass(obj, BaseException)
        ):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.annotation in NUMERIC:
                out.add((name, param.name))
    return out


def test_every_int_and_rational_parameter_of_an_export_has_a_row():
    numeric = _numeric_parameters()
    missing = {key for key in numeric - set(ROWS) if key[0] not in EXEMPT}
    assert not missing, "add a row to ROWS"
    assert set(ROWS) <= numeric, "a row names no int or rational parameter"


def _bound(node: ast.AST, params: set[str]) -> bool:
    """A number, an upper-case constant, or an expression reading an
    attribute of a parameter (say ``6 * g.n``): what a hand-rolled range
    check compares a parameter with."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id.isupper()
    return any(
        isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in params
        for n in ast.walk(node)
    )


def _checks_by_hand(test: ast.AST, numeric: set[str], params: set[str]) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "type"):
            if any(isinstance(n, ast.Name) and n.id in NUMBER_TYPES for n in ast.walk(node)):
                return True
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, o in enumerate(operands):
                others = operands[:i] + operands[i + 1:]
                if isinstance(o, ast.Name) and o.id in numeric and all(
                    _bound(x, params) for x in others
                ):
                    return True
    return False


def hand_checks(source: str) -> list[str]:
    """``function:line`` of every ``if`` that raises when an int or
    rational parameter of its function fails a type test or a comparison
    with a bound written out by hand."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = [a for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs,
                            fn.args.vararg) if a is not None]
        numeric = {
            a.arg for a in args
            if a.annotation is not None and ast.unparse(a.annotation) in NUMERIC
        }
        params = {a.arg for a in args}
        for node in ast.walk(fn):
            if (isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)
                    and _checks_by_hand(node.test, numeric, params)):
                found.append(f"{fn.name}:{node.lineno}")
    return found


# the vertex intake checks one vertex id, a position and not a count
ALLOWED = {"graph.py": ["check_vertex"]}


def test_only_errors_checks_counts_and_rationals_by_hand():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        hits = [
            hit for hit in hand_checks(path.read_text(encoding="utf-8"))
            if hit.split(":")[0] not in ALLOWED.get(path.name, ())
        ]
        if hits:
            found[path.name] = hits
    assert not found, "read the parameter through errors.check_count or check_rational"
    assert hand_checks((PACKAGE / "graph.py").read_text(encoding="utf-8"))
