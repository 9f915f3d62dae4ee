"""Layering of the package: one-way imports, all at module top."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import growthcert

PACKAGE = Path(growthcert.__file__).parent
ROUTES = ("eigensolver", "variational", "montecarlo")


def _imports(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_function_level_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested = [node.lineno for node in _imports(tree) if id(node) not in top]
        assert nested == [], f"{path.name} imports inside a function at lines {nested}"


@pytest.mark.parametrize("route", ROUTES)
def test_routes_do_not_import_each_other(route):
    """The three routes check each other, so none may import another."""
    tree = ast.parse((PACKAGE / f"{route}.py").read_text(encoding="utf-8"))
    names = {
        part
        for node in _imports(tree)
        for alias in node.names
        for part in f"{getattr(node, 'module', None) or ''}.{alias.name}".split(".")
    }
    assert names.isdisjoint(set(ROUTES) - {route})


def test_only_numpy_outside_the_standard_library():
    """The package depends on numpy alone; any other third-party import fails here."""
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if not getattr(node, "level", 0)
        for name in ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
        if name.split(".")[0] not in allowed
    ]
    assert foreign == []
