"""Package hygiene: standard-library imports only, exports that resolve, read-only records and a light import."""

import ast
import importlib
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multiagm
from multiagm import (
    CircleSpec,
    CloudRequest,
    MagmTriplet,
    QuartetParams,
    SignSchedule,
    enumerate_cloud,
    fit_cloud,
    magm_equivalence,
    magm_negative_experiment,
    reference_set,
    run_quartet,
)
from multiagm.lattice import LatticeSpec

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


def test_readme_library_example_runs(capsys):
    # an API change that breaks the documented example fails here, not in a reader's hands
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("True ")


def _records():
    """One instance of each record class that the package defines."""
    params = QuartetParams(k=None, sinphi=0.8, complement=0.25)
    request = CloudRequest("F", params, sigma_bits=1, delta_bits=1)
    cloud = enumerate_cloud(request)
    spec = LatticeSpec(origin=0j, gen1=1.0, gen2=1j)
    report = fit_cloud(cloud, spec)
    return (
        SignSchedule(1), params, run_quartet(params), cloud[0], request, cloud, spec, CircleSpec(x1=0.2, x2=1.0),
        report.points, report, reference_set(b=0.25), MagmTriplet(1.0, 0.5, 0.25), magm_equivalence(0.25, rows=4),
        magm_negative_experiment(0.25, 0, rows=4),
    )


RECORDS = _records()


def test_records_cover_every_public_class():
    defined = {
        node.name
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    }
    assert {type(record).__name__ for record in RECORDS} == defined


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_read_only(record):
    # on every interpreter: a field and any other name both refuse assignment, and a record pickles
    field = (getattr(record, "_fields", None) or type(record).__slots__)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 3
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert not hasattr(record, "__dict__")
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


@pytest.mark.parametrize(
    "record, change",
    [
        (QuartetParams(k=0.5, sinphi=0.8), {"signb": 2}),
        (CloudRequest("K", QuartetParams(k=0.5, sinphi=0.8), sigma_bits=1), {"delta_bits": 1}),
        (LatticeSpec(origin=0j, gen1=1.0, gen2=1j), {"gen2": 2.0}),
        (CircleSpec(x1=0.2, x2=1.0), {"x2": 0.2}),
    ],
    ids=["QuartetParams", "CloudRequest", "LatticeSpec", "CircleSpec"],
)
def test_replace_checks_as_construction_does(record, change):
    with pytest.raises(ValueError):
        record._replace(**change)
    with pytest.raises(ValueError):
        type(record)(**{**record._asdict(), **change})


def test_import_loads_no_dataclass_typing_or_json_machinery():
    # a fresh interpreter pays for every module the package imports before its first square root;
    # -S keeps an environment's site hooks out, so only the package's own imports count
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import multiagm, multiagm.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'typing', 'json'} & set(sys.modules)))"
    )
    src = str(Path(multiagm.__file__).parents[1])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
