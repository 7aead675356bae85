"""Every export has a caller.

A name that ``minorforge/__init__.py`` imports stays only if a construction,
the CLI, the benchmark, a script or the acceptance gate refers to it, or if
``ALLOWED`` says why it stays without one.  References are read from the
syntax tree, so a word in a docstring or a comment does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minorforge"

ALLOWED = {
    "replay_extraction": "the checker for extraction-trace certificates",
    "contract_model": "the independent oracle for model validation",
    "anticomplete": "the oracle for the attached-search precondition in tests",
    "attached_model_search": "the attached-model lemma with its separation hypothesis "
    "checked; rooted_from_minor runs the same loop where connectivity implies it",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _callers() -> list[Path]:
    library = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return (
        library
        + sorted((ROOT / "perfbench").glob("*.py"))
        + sorted((ROOT / "scripts").glob("*.py"))
        + [ROOT / "tests" / "test_acceptance.py"]
    )


def _references(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names referred to in ``tree`` as a name or an attribute, outside the
    definition of ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == skip:
                continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _referenced(names: set[str]) -> set[str]:
    found: set[str] = set()
    for path in _callers():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        found |= _references(tree) & (names - defined)
        for name in names & defined:
            if name in _references(tree, skip=name):
                found.add(name)
    return found


def test_every_export_has_a_caller():
    names = _exports()
    referenced = _referenced(names)
    uncalled = names - referenced - set(ALLOWED)
    assert not uncalled, f"exports with no caller and no reason to stay: {sorted(uncalled)}"
    assert set(ALLOWED) <= names - referenced, "ALLOWED names an export that is gone or called"
