"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

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
