"""Every optional parameter of an export is set by some caller.

A parameter with a default that no construction, CLI path, benchmark,
script or acceptance test ever sets is a knob nothing turns: each of its
other values is a code path that only its own unit test reaches.  This
reads the calls of each exported function from the syntax tree of the
callers that ``test_exports.py`` names.  A call sets a parameter by
keyword, by position, or through ``**mapping``, whose keys are the string
keys the same file stores into or builds that mapping with.  ``ALLOWED``
names the parameters that stay without a caller, and why.
"""

from __future__ import annotations

import ast
import inspect

import minorforge

from test_exports import _callers, _exports

ALLOWED = {
    "realize_woven_from_dense_minor.dense_model": "carries the lemma's own dense-minor hypothesis",
}


def _optional(fn) -> tuple[list[str], list[str]]:
    """The positional parameters in order, and the names of those with a
    default."""
    params = list(inspect.signature(fn).parameters.values())
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return positional, [p.name for p in params if p.default is not p.empty]


def _mapping_keys(tree: ast.AST) -> dict[str, set[str]]:
    """For each name, the string keys a file stores into it
    (``name["key"] = ...``) or builds it with (``name = {"key": ...}``)."""
    keys: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                    and isinstance(target.slice, ast.Constant)):
                keys.setdefault(target.value.id, set()).add(target.slice.value)
            elif isinstance(target, ast.Name) and isinstance(node.value, ast.Dict):
                keys.setdefault(target.id, set()).update(
                    k.value for k in node.value.keys if isinstance(k, ast.Constant)
                )
    return keys


def _calls(tree: ast.AST, names: set[str]):
    """(callee name, call) for each call of a name in ``names``, as a name
    or an attribute, outside the callee's own definition."""
    stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names and name != inside:
                yield name, node
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))


def _set_by_callers(functions: dict[str, object]) -> set[str]:
    """``function.parameter`` for every optional parameter some caller sets."""
    signatures = {name: _optional(fn) for name, fn in functions.items()}
    found: set[str] = set()
    for path in _callers():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mapping_keys = _mapping_keys(tree)
        for name, call in _calls(tree, set(functions)):
            positional, optional = signatures[name]
            given = set(positional[:len(call.args)])
            for kw in call.keywords:
                if kw.arg is not None:
                    given.add(kw.arg)
                elif isinstance(kw.value, ast.Name):
                    given |= mapping_keys.get(kw.value.id, set())
            found |= {f"{name}.{p}" for p in given & set(optional)}
    return found


def test_every_optional_parameter_is_set_by_a_caller():
    functions = {
        name: getattr(minorforge, name)
        for name in _exports()
        if inspect.isfunction(getattr(minorforge, name))
    }
    optional = {f"{name}.{p}" for name, fn in functions.items() for p in _optional(fn)[1]}
    unset = optional - _set_by_callers(functions)
    assert unset <= set(ALLOWED), f"optional parameters no caller sets: {sorted(unset - set(ALLOWED))}"
    assert set(ALLOWED) <= unset, "ALLOWED names a parameter that is gone or set by a caller"
