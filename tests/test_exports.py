"""Every name a module of the package exports resolves and has a caller."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import trimmoments

ROOT = Path(__file__).resolve().parents[1]
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
    package = ROOT / "src" / "trimmoments"
    used = _referenced_names([*package.rglob("*.py"),
                              *(ROOT / "bench").rglob("*.py")])
    # The traced layers call their functions by name.
    used.update(f for targets in _bench_layers().values() for _, f in targets)
    unused = [f"{name}.{attr}" for name in MODULES
              for attr in importlib.import_module(name).__all__
              if attr not in used]
    assert unused == []
