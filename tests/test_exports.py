"""Every name a module of the package exports resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import trimmoments

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


def test_bench_traced_layers_resolve():
    # bench/spans.py wraps these (module, function) pairs by name; one the
    # package no longer defines would read as a layer with zero calls.
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench"
                      / "spans.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "LAYERS")
    pairs = [pair for targets in layers.values() for pair in targets]
    assert len(pairs) >= len(layers) > 0
    missing = [f"{m}.{f}" for m, f in pairs if not callable(getattr(
        importlib.import_module(f"trimmoments.{m}"), f, None))]
    assert missing == []
