"""Golden outputs of the README reference invocations.

Each case runs ``cli.main`` in-process and compares stdout byte for byte
with a file under ``tests/golden/``.  The ``fit``, ``are`` and ``gof``
files hold the output of the package before the families were merged
into one location-scale engine, the two ``simulate`` files its output
before the Monte Carlo study was vectorised.  The ``help`` files hold
the ``--help`` texts of the program and its subcommands at 80 columns
(``COLUMNS=80``).  Regenerate them only for a deliberate change of
printed output, with ``python tests/test_golden.py --write``.

``are_edges.json`` holds the stdout, stderr and exit code of ``are`` at
extreme parameters, schemes and grids, as the package gave them while
its ARE constants were still computed with numpy; it is not rewritten
by ``--write``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trimmoments
from trimmoments.cli import main

GOLDEN = Path(__file__).with_name("golden")

TABLE_SCHEMES = ("0.02,0.02,0.02,0.02", "0.05,0.05,0.05,0.05",
                 "0.10,0.10,0.10,0.10", "0.15,0.15,0.15,0.15",
                 "0.02,0.02,0,0.04", "0.05,0.05,0,0.10",
                 "0.10,0.10,0,0.20", "0.15,0.15,0,0.30")
SIMULATION_SCHEMES = ("0,0,0,0", "0,0.05,0,0.05", "0,0.10,0,0.10",
                      "0.10,0,0.05,0.05", "0.05,0.05,0,0.10",
                      "0.10,0.10,0,0.20", "0.15,0.15,0,0.30",
                      "0,0.10,0.05,0.05", "0.05,0.05,0.10,0",
                      "0.10,0.10,0.20,0", "0.15,0.15,0.30,0",
                      "0.25,0.50,0.50,0.25")
GOF_SCHEMES = ("0,1/30,0,1/30", "1/30,0,1/30,0", "1/30,1/30,1/30,1/30",
               "2/30,2/30,2/30,2/30", "3/30,3/30,3/30,3/30")


def _schemes(values):
    return [arg for s in values for arg in ("--scheme", s)]


CASES = {
    "fit_lognormal.json": ["fit", "--model", "lognormal", "--data", "hurricane",
                           "--a1", "0", "--b1", "0", "--a2", "0", "--b2", "0"],
    "fit_frechet.json": ["fit", "--model", "frechet", "--data", "hurricane",
                         "--a1", "1/30", "--b1", "1/30",
                         "--a2", "1/30", "--b2", "1/30"],
    # Unequal schemes: the nested-window covariance entries and the linear
    # term of the Jacobian (minus branch, then plus branch).
    "fit_frechet_nested.json": ["fit", "--model", "frechet",
                                "--data", "hurricane", "--a1", "0.05",
                                "--b1", "0.05", "--a2", "0", "--b2", "0.10"],
    "fit_lognormal_nested.json": ["fit", "--model", "lognormal",
                                  "--data", "hurricane", "--a1", "0.1",
                                  "--b1", "0.1", "--a2", "0.2", "--b2", "0"],
    "are_normal.csv": ["are", "--model", "normal", "--sigma", "3",
                       "--theta=-25,-15,-10,-5,0,5,10,15,25"]
    + _schemes(TABLE_SCHEMES),
    "are_frechet.csv": ["are", "--model", "frechet", "--sigma", "2",
                        "--beta", "0.1,0.2,0.5,1,2,5,10,15,25"]
    + _schemes(TABLE_SCHEMES),
    "gof_modified.csv": ["gof", "--modified"] + _schemes(GOF_SCHEMES),
    # The README simulation tables, reduced to one sample size and one
    # repetition (and 500 Frechet replicates) to keep the run short.
    "simulate_normal.csv": ["simulate", "--model", "normal", "--theta", "0.1",
                            "--sigma", "5", "--n", "100",
                            "--replicates", "2000", "--repetitions", "1",
                            "--seed", "0"] + _schemes(SIMULATION_SCHEMES),
    "simulate_frechet.csv": ["simulate", "--model", "frechet", "--beta", "5",
                             "--sigma", "2", "--n", "1000",
                             "--replicates", "500", "--repetitions", "1",
                             "--seed", "0"] + _schemes(SIMULATION_SCHEMES),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_invocation_stdout_is_unchanged(name, capsys):
    assert main(CASES[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()


EDGES = json.loads((GOLDEN / "are_edges.json").read_text())


@pytest.mark.parametrize("name", sorted(EDGES))
def test_are_edge_case_is_unchanged(name, capsys):
    case = EDGES[name]
    assert main(case["argv"]) == case["code"]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (case["stdout"], case["stderr"])


HELP_CASES = {"help.txt": ["--help"], **{
    f"help_{command}.txt": [command, "--help"]
    for command in ("fit", "are", "simulate", "gof")}}


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_text_is_unchanged(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(HELP_CASES[name])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()


# numpy's AVX-512 kernels of log and exp round differently from its other
# paths; `fit` takes every log of its 17 digits from libm instead.
NO_AVX512 = ("AVX512F AVX512CD AVX512VL AVX512BW AVX512DQ AVX512_SKX "
             "AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4")
PROBE = """
import contextlib, io, json, sys
from trimmoments.cli import main
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    outs.append(buf.getvalue())
print(json.dumps(outs))
"""


def test_fit_output_does_not_depend_on_avx512():
    names = sorted(name for name in CASES if name.startswith("fit_"))
    path = [str(Path(trimmoments.__file__).resolve().parent.parent),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([CASES[n] for n in names])],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    outs = json.loads(proc.stdout)
    assert len(names) == 4
    for name, out in zip(names, outs):
        assert out.encode() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "80"
    for name, argv in {**CASES, **HELP_CASES}.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        assert code == 0
        (GOLDEN / name).write_bytes(buf.getvalue().encode())
