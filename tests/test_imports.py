"""The import contract: numpy loads only for `fit`, `simulate` and `gof`,
and scipy only at the first Monte Carlo draw of a normal family.

`import trimmoments`, `import trimmoments.cli`, every `--help` and
`are` for all three models run without numpy: the command line module
imports only the numpy-free modules (`families`, `moments`,
`quadrature`, `asymptotics`), which compute an ARE point on Python
floats, and imports the array modules (`estimators`, `gof`,
`simulation`, `models`) inside the subcommands that use them.
Importing the package, and every `fit`, `are` and `gof` run, leave scipy
unloaded (it is most of the CLI's start-up time).  The normal families'
base quantile is one function, a port of Cephes `ndtri` that equals
scipy's bit for bit; only the draw's whole blocks (its `out=` calls)
forward to scipy's `ndtri`, imported at the first such call.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import trimmoments
from trimmoments import models
from trimmoments.models import SPECS, Family, ParameterVector

PACKAGE = Path(trimmoments.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
GOLDEN = Path(__file__).with_name("golden")

FIT_FRECHET = ["fit", "--model", "frechet", "--data", "hurricane",
               "--a1", "1/30", "--b1", "1/30", "--a2", "1/30", "--b2", "1/30"]
ARE_FRECHET = ["are", "--model", "frechet", "--sigma", "2",
               "--beta", "0.1,0.2,0.5,1,2,5,10,15,25",
               "--scheme", "0.02,0.02,0.02,0.02"]
FIT_LOGNORMAL = ["fit", "--model", "lognormal", "--data", "hurricane",
                 "--a1", "0", "--b1", "0", "--a2", "0", "--b2", "0"]
ARE_NORMAL = ["are", "--model", "normal", "--sigma", "3",
              "--theta=-25,0,25", "--scheme", "0.05,0.05,0,0.10"]
GOF_MODIFIED = ["gof", "--modified", "--scheme", "1/30,1/30,1/30,1/30"]
STUDY = ["--sigma", "2", "--n", "20", "--replicates", "100",
         "--repetitions", "1", "--scheme", "0.1,0.1,0.1,0.1"]
SIMULATE_FRECHET = ["simulate", "--model", "frechet", "--beta", "1"] + STUDY
SIMULATE_LOGNORMAL = ["simulate", "--model", "lognormal", "--theta", "1"] + STUDY

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


NUMPY_PROBE = """
import contextlib, io, json, sys
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy raises ImportError
import trimmoments
import trimmoments.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = trimmoments.cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    runs.append([code, out.getvalue(), sys.modules.get("numpy") is not None])
print(json.dumps(runs))
"""


def _numpy_probe(runs, blocked):
    """[exit code, stdout, numpy loaded] after each CLI run of `runs` in
    turn, in one fresh interpreter, where numpy cannot be imported if
    `blocked`."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(runs),
         "blocked" if blocked else "free"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_import_help_and_are_run_without_numpy():
    invocations = json.loads((ROOT / "bench" / "reference.json")
                             .read_text())["cli"]["invocations"]
    are_lognormal = ["are", "--model", "lognormal", "--sigma", "0.5",
                     "--theta=-2,0,3", "--scheme", "0.05,0.05,0,0.10",
                     "--scheme", "0.1,0.1,0.1,0.1"]
    runs = [["--help"], *([command, "--help"]
                          for command in ("fit", "are", "simulate", "gof")),
            invocations["are-normal"], invocations["are-frechet"],
            are_lognormal]
    blocked = _numpy_probe(runs, blocked=True)
    free = _numpy_probe(runs, blocked=False)
    assert [code for code, _, _ in blocked] == [0] * len(runs)
    assert [out for _, out, _ in blocked] == [out for _, out, _ in free]
    assert all(out for _, out, _ in free)
    # With numpy installed, none of these runs loads it either.
    assert [loaded for _, _, loaded in free] == [False] * len(runs)


def test_fit_after_are_imports_the_array_modules():
    (are_code, _, after_are), (fit_code, out, after_fit) = _numpy_probe(
        [ARE_FRECHET, FIT_FRECHET], blocked=False)
    assert (are_code, after_are, fit_code, after_fit) == (0, False, 0, True)
    assert out == (GOLDEN / "fit_frechet.json").read_text()


def _top_level_imports(tree):
    """The package modules a module imports at import time, by their
    relative imports outside function bodies."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)


def test_cli_imports_exactly_the_numpy_free_modules():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    numpy_free = {name for name, tree in trees.items()
                  if not any(m.split(".")[0] == "numpy"
                             for m in _import_time_modules(tree))}
    assert numpy_free == {"__init__", "families", "quadrature", "moments",
                          "asymptotics", "cli"}
    assert set(_top_level_imports(trees["cli"])) == numpy_free - {
        "__init__", "cli", "quadrature"}


def test_cli_import_and_frechet_runs_leave_scipy_unloaded():
    assert _scipy_loaded(FIT_FRECHET, ARE_FRECHET) == [False, False, False]


def test_only_a_normal_draw_loads_scipy():
    assert _scipy_loaded(FIT_LOGNORMAL, ARE_NORMAL, GOF_MODIFIED,
                         SIMULATE_FRECHET, SIMULATE_LOGNORMAL) == [
        False, False, False, False, False, True]


def test_normal_base_quantile_is_one_function(monkeypatch):
    # The base quantile reads no scipy; the first draw imports ndtri, and
    # the base quantile stays the same object throughout.  (scipy is
    # imported here, not at the top: the numpy-free tests above run
    # without it.)
    import scipy.special

    monkeypatch.setattr(models, "_scipy_ndtri", None)
    base = SPECS[Family.NORMAL].base_quantile
    assert SPECS[Family.LOGNORMAL].base_quantile is base
    base(np.array([0.3, 0.7]))
    assert models._scipy_ndtri is None
    SPECS[Family.NORMAL].draw(ParameterVector(), np.array([0.3, 0.7]))
    assert models._scipy_ndtri is scipy.special.ndtri
    assert SPECS[Family.NORMAL].base_quantile is base
    assert SPECS[Family.LOGNORMAL].base_quantile is base


def _tail_points():
    """10^6 points in [0, 1] that reach every branch of Cephes `ndtri`:
    the central region, both tails down to the smallest subnormal, and
    the two exp(-2) and the exp(-32) branch edges with their neighbours."""
    rng = np.random.default_rng(9)
    edges = [math.exp(-2.0), 1.0 - 0.13533528323661269189, math.exp(-32.0),
             1.0 - math.exp(-32.0)]
    edges += [np.nextafter(v, d) for v in edges for d in (0.0, 1.0)]
    edges += [1e-300, 0.5, 1.0 - 1e-16, 1.0 - 2.0 ** -53, 2.0 ** -1022,
              2.0 ** -1074]
    return np.concatenate([
        edges, rng.random(600_000),
        np.exp(-745.0 * rng.random(200_000)),
        1.0 - np.exp(-37.0 * rng.random(200_000 - len(edges)))])


def test_normal_base_quantile_is_ndtri_bit_for_bit():
    import scipy.special

    base, ndtri = SPECS[Family.NORMAL].base_quantile, scipy.special.ndtri
    u = _tail_points()
    assert u.size == 10 ** 6
    assert np.array_equal(base(u), ndtri(u))
    for v in (0.3, 1e-300, np.float64(0.975), np.array(0.3), 0.0, 1.0):
        assert np.array_equal(base(v), ndtri(v))
        assert type(base(v)) is type(ndtri(v))
    assert base(np.zeros((2, 0))).shape == (2, 0)
    # The draw's whole blocks go to scipy's ufunc, in place.
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
