"""Package hygiene: standard-library imports only, and exports that resolve."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import multiagm

SOURCES = sorted(Path(multiagm.__file__).parent.glob("*.py"))
MODULES = ["multiagm"] + [f"multiagm.{path.stem}" for path in SOURCES if path.stem != "__init__"]


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        f"{path.name}:{lineno} imports {name}"
        for lineno, name in _imported_modules(tree)
        if name.split(".")[0] not in sys.stdlib_module_names and name.split(".")[0] != "multiagm"
    ]
    assert not foreign


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing


def _defined_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


def _read_names(tree: ast.Module):
    # the strings of `__all__` are constants, so they count as no read
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_top_level_name_has_a_reader():
    # a name that only tests read is a helper without a user; public entry points need none
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    read = {name for tree in trees.values() for name in _read_names(tree)}
    unread = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined_names(tree)
        if name not in read and name not in multiagm.__all__ and not name.startswith("__")
    ]
    assert not unread
