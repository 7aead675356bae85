"""Every export has a caller, and test oracles stay in the tests.

A name that ``minorforge/__init__.py`` imports stays only if a construction,
the CLI, the benchmark, a script or the acceptance gate refers to it, or if
``ALLOWED`` says why it stays without one.  Oracles that only tests call
live in ``tests/*_reference.py``: the package never imports them, and some
test module imports each one.  References and imports are read from the
syntax tree, so a word in a docstring or a comment does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minorforge"
TESTS = ROOT / "tests"

ALLOWED = {
    "attached_model_search": "the attached-model lemma with its separation hypothesis "
    "checked; realize_woven_from_dense_minor runs the same loop where counting implies it",
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
    assert set(ALLOWED) == {"attached_model_search"}


def _imported(path: Path) -> set[str]:
    """Top-level names of the modules that ``path`` imports."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_the_package_imports_nothing_from_the_tests():
    test_modules = {p.stem for p in TESTS.glob("*.py")} | {"tests"}
    for path in sorted(PACKAGE.glob("*.py")):
        assert not _imported(path) & test_modules, f"{path.name} imports from tests/"


def test_every_reference_module_has_a_test_that_imports_it():
    references = {p.stem for p in TESTS.glob("*_reference.py")}
    imported = set().union(*map(_imported, TESTS.glob("test_*.py")))
    assert "model_reference" in references
    assert references <= imported, f"unused oracles: {sorted(references - imported)}"
