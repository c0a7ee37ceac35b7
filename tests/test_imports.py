"""The import contract: scipy loads only at the first Phi^{-1} call.

Importing the package, and every Frechet run, leave scipy unloaded (it
is most of the CLI's start-up time); the normal families' base quantile
is one function that imports scipy's `ndtri` when first called.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

import trimmoments
from trimmoments import models
from trimmoments.models import SPECS, Family

PACKAGE = Path(trimmoments.__file__).resolve().parent

FIT_FRECHET = ["fit", "--model", "frechet", "--data", "hurricane",
               "--a1", "1/30", "--b1", "1/30", "--a2", "1/30", "--b2", "1/30"]
ARE_FRECHET = ["are", "--model", "frechet", "--sigma", "2",
               "--beta", "0.1,0.2,0.5,1,2,5,10,15,25",
               "--scheme", "0.02,0.02,0.02,0.02"]
FIT_LOGNORMAL = ["fit", "--model", "lognormal", "--data", "hurricane",
                 "--a1", "0", "--b1", "0", "--a2", "0", "--b2", "0"]

PROBE = """
import contextlib, io, json, sys
import trimmoments.cli
seen = ['scipy' in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert trimmoments.cli.main(argv) == 0
    seen.append('scipy' in sys.modules)
print(json.dumps(seen))
"""


def _scipy_loaded(*runs):
    """Whether scipy is loaded in a fresh interpreter after `import
    trimmoments.cli`, then after each CLI run of `runs` in turn."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs)],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout)


def test_cli_import_and_frechet_runs_leave_scipy_unloaded():
    assert _scipy_loaded(FIT_FRECHET, ARE_FRECHET) == [False, False, False]


def test_lognormal_fit_loads_scipy():
    assert _scipy_loaded(FIT_LOGNORMAL) == [False, True]


def test_normal_base_quantile_is_one_function(monkeypatch):
    # The first call imports ndtri; the caches keyed on the base quantile
    # (the segment table and the scheme records of `moments`) must see
    # the same object.
    monkeypatch.setattr(models, "_scipy_ndtri", None)
    base = SPECS[Family.NORMAL].base_quantile
    assert SPECS[Family.LOGNORMAL].base_quantile is base
    base(0.3)
    assert models._scipy_ndtri is scipy.special.ndtri
    assert SPECS[Family.NORMAL].base_quantile is base
    assert SPECS[Family.LOGNORMAL].base_quantile is base


def test_normal_base_quantile_is_ndtri_bit_for_bit():
    base, ndtri = SPECS[Family.NORMAL].base_quantile, scipy.special.ndtri
    u = np.random.default_rng(9).random(1000)
    u[:4] = 1e-300, 0.5, 1.0 - 1e-16, 2.0 ** -1074
    for v in (0.3, 1e-300, np.float64(0.975), np.array(0.3)):
        assert np.array_equal(base(v), ndtri(v))
        assert type(base(v)) is type(ndtri(v))
    assert np.array_equal(base(u), ndtri(u))
    out = np.empty_like(u)
    assert base(u, out=out) is out
    assert np.array_equal(out, ndtri(u))


def _import_time_modules(tree):
    """Modules named by the import statements of a module that run when
    it is imported: all of them outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_import_time():
    # Read-only: scipy.special alone costs about 0.3 s of start-up.
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.rglob("*.py"))
             for name in _import_time_modules(ast.parse(path.read_text()))
             if name.split(".")[0] == "scipy"]
    assert found == []
