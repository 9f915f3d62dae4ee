"""Layering of the package: one-way imports, all at module top."""

from __future__ import annotations

import ast
from pathlib import Path

import growthcert

PACKAGE = Path(growthcert.__file__).parent


def _imports(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_function_level_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        nested = [node.lineno for node in _imports(tree) if id(node) not in top]
        assert nested == [], f"{path.name} imports inside a function at lines {nested}"


def test_eigensolver_does_not_import_variational():
    tree = ast.parse((PACKAGE / "eigensolver.py").read_text(encoding="utf-8"))
    modules = {node.module for node in _imports(tree) if isinstance(node, ast.ImportFrom)}
    assert "variational" not in modules
