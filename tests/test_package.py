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
