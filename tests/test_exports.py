"""Every name a module of the package exports resolves and has a caller."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import trimmoments
from trimmoments.models import FamilySpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trimmoments"
MODULES = ["trimmoments"] + [
    f"trimmoments.{m.name}" for m in pkgutil.iter_modules(trimmoments.__path__)]


def test_every_module_is_listed():
    assert {"trimmoments.cli", "trimmoments.quadrature",
            "trimmoments.moments"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _bench_layers():
    """LAYERS of bench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "LAYERS")


def test_bench_traced_layers_resolve():
    # bench/spans.py wraps these (module, function) pairs by name; one the
    # package no longer defines would read as a layer with zero calls.
    layers = _bench_layers()
    pairs = [pair for targets in layers.values() for pair in targets]
    assert len(pairs) >= len(layers) > 0
    missing = [f"{m}.{f}" for m, f in pairs if not callable(getattr(
        importlib.import_module(f"trimmoments.{m}"), f, None))]
    assert missing == []


def _referenced_names(paths):
    """Every name the files use: Name ids, Attribute attrs and the names
    they import."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller():
    # A name exported for the tests alone belongs in tests/oracles.py.
    used = _referenced_names([*PACKAGE.rglob("*.py"),
                              *(ROOT / "bench").rglob("*.py")])
    # The traced layers call their functions by name.
    used.update(f for targets in _bench_layers().values() for _, f in targets)
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in importlib.import_module(name).__all__
              if attr not in used]
    assert unused == []


def test_every_family_spec_field_is_read():
    # A field that no code in the package reads is dead weight in every
    # family's spec.
    read = {node.attr for path in PACKAGE.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = FamilySpec._fields
    assert [f for f in fields if f not in read] == []


def _record_machinery(tree):
    """Names of the dataclass and namedtuple machinery a module's source
    imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_records_are_named_tuples_and_cli_import_skips_dataclasses():
    # One record idiom, typing.NamedTuple: every class with annotated
    # fields subclasses it, no module uses dataclasses or
    # collections.namedtuple, and importing the CLI leaves dataclasses
    # unloaded.
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    records = {node.name: [ast.unparse(b) for b in node.bases]
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(isinstance(s, ast.AnnAssign) for s in node.body)}
    assert {"FamilySpec", "SchemeRecord", "StudyResult"} <= records.keys()
    assert [r for r, bases in records.items() if bases != ["NamedTuple"]] == []
    found = [f"{name}: {used}" for name, tree in trees.items()
             for used in _record_machinery(tree)
             if used and (used.split(".")[0] == "dataclasses"
                          or used.endswith("namedtuple"))]
    assert found == []
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = "import sys, trimmoments.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert proc.stdout.split() == ["False"]
