"""Benchmark of the trimmoments package.

Usage (from the repository root):

    python3 bench/run.py --workload mc-normal --seed 1 --seconds 15 --trace 0

Workloads: mc-normal, mc-frechet, are-design, cli-reference (see
bench/README.md).  With ``--trace 0`` the run measures end-to-end
figures for ``--seconds`` and checks every output; with ``--trace 1`` it
runs one fixed unit of the workload in alternating untraced and traced
passes and reports per-layer figures.  A report with the environment and
the named metrics of the workload is printed first; the last line of
stdout is the result object.  The exit code is 1 when an output check
failed and 2 when the package sources are missing.
"""

import os

# Pin BLAS threads before numpy is imported, here and in every child.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-normal", "mc-frechet", "are-design", "cli-reference")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import trimmoments.cli; "
                "print(time.perf_counter() - t)")
# The host-speed probe for set-up; {} takes workloads.STDLIB_IMPORTS.
STDLIB_PROBE = ("import time; t = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t)")
# Nominal time of one STDLIB_PROBE, about its median on the machine the
# benchmark was written on.  It only sets the scale of setup_s.
REFERENCE_STDLIB_S = 0.11
SETUP_REPEATS = {False: 9, True: 2}
IMPORTTIME_REPEATS = {False: 3, True: 1}
# importtime entries reported as import.<key>: the cumulative time of
# the line that first imports the package, i.e. the self times of its
# subtree; for trimmoments the self times of its own modules.
IMPORT_KEYS = {"numpy": "numpy", "scipy.special": "scipy_special",
               "scipy.optimize": "scipy_optimize"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    p.add_argument("--references", default=str(BENCH / "reference.json"))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _fresh_seconds(code, env):
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout)


def setup_seconds(repeats, env, stdlib_imports):
    """Host-normalised import time of trimmoments.cli.

    Each import in a fresh interpreter lies between two stdlib-import
    probes; the median of the ratios import / mean of its two probes,
    times REFERENCE_STDLIB_S, is the import time on the reference host.
    Returns it with the raw import times and the probe times."""
    probe = STDLIB_PROBE.format(stdlib_imports)
    imports, probes = [], [_fresh_seconds(probe, env)]
    for _ in range(repeats):
        imports.append(_fresh_seconds(IMPORT_PROBE, env))
        probes.append(_fresh_seconds(probe, env))
    ratio = statistics.median(2 * t / (before + after) for t, before, after
                              in zip(imports, probes, probes[1:]))
    return ratio * REFERENCE_STDLIB_S, imports, probes


def import_breakdown(repeats, env):
    """Per-package import seconds from ``python -X importtime``."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trimmoments.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=60)
        found = {key: 0.0 for key in IMPORT_KEYS.values()}
        found["trimmoments"] = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                own = float(parts[0].split(":")[1]) * 1e-6
                cumulative = float(parts[1]) * 1e-6
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            if name in IMPORT_KEYS and not found[IMPORT_KEYS[name]]:
                found[IMPORT_KEYS[name]] = cumulative
            if name == "trimmoments" or name.startswith("trimmoments."):
                found["trimmoments"] += own
        runs.append(found)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def peak_rss_mb():
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(summary, untraced, traced, failure_ratio, imports):
    calls, self_s = summary["calls"], summary["self_s"]
    m = {f"{layer}.calls": (calls[layer], "count") for layer in calls}
    m.update({f"{layer}.self_s": (self_s[layer], "s") for layer in self_s})
    solves = calls["estimators.solve_scale"]
    m["estimators.proximity_ratio"] = (
        summary["counters"]["reference_consulted"] / solves if solves else 0.0,
        "ratio")
    m["simulation.failure_ratio"] = (failure_ratio, "ratio")
    m["quadrature.integrand_points"] = (
        summary["counters"]["integrand_points"], "count")
    m.update({f"import.{key}_s": (value, "s") for key, value in imports.items()})
    m["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    m["trace.uncovered_s"] = (traced - summary["top_s"], "s")
    return m


def environment(args):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREADS},
        "load": "closed loop, one process, one operation at a time",
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "trimmoments" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    start = time.perf_counter()
    import trimmoments.cli  # noqa: F401  (timed: setup_in_process_s)
    imported = time.perf_counter() - start

    import workloads

    with open(args.references) as fh:
        refs = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    tiny = args.size == "tiny"
    ctx = workloads.Context(args.seed, args.seconds, tiny, refs, ROOT, env)
    report = {"environment": environment(args)}
    if args.trace:
        out, summary, untraced, traced, failure_ratio = \
            workloads.TRACED[args.workload](ctx)
        imports = import_breakdown(IMPORTTIME_REPEATS[tiny], env)
        named = layer_metrics(summary, untraced, traced, failure_ratio, imports)
        report["spans"] = {"edges": summary["edges"],
                           "total_s": summary["total_s"],
                           "absent": summary["absent"]}
        result_names = [m["name"] for m in declared["per_layer"]]
    else:
        setup, setup_runs, probe_runs = setup_seconds(
            SETUP_REPEATS[tiny], env, workloads.STDLIB_IMPORTS)
        out, rate, latency, named = workloads.MEASURE[args.workload](ctx)
        ctx.host.probe()  # after the last operation too
        slowdown = ctx.host.slowdown()
        named["throughput_per_s"] = (rate * slowdown, "1/s")
        named["latency_ms.p50"] = (1e3 * latency / slowdown, "ms")
        named["host_slowdown"] = (slowdown, "ratio")
        named["setup_s"] = (setup, "s")
        named["setup_raw_s"] = (statistics.median(setup_runs), "s")
        named["setup_in_process_s"] = (imported, "s")
        named["setup_slowdown"] = (statistics.median(probe_runs)
                                   / REFERENCE_STDLIB_S, "ratio")
        # cli-reference reports its CLI processes' peak instead
        named.setdefault("peak_rss_mb", (peak_rss_mb(), "MB"))
        named["failed_frac"] = (min(out.failed, out.attempted)
                                / max(out.attempted, 1), "fraction")
        report["setup_runs_s"] = setup_runs
        report["setup_probe_runs_s"] = probe_runs
        result_names = [m["name"] for m in declared["end_to_end"]]
    failed = min(out.failed, out.attempted)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    report["check_failures"] = out.messages
    print(json.dumps(report, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {k: report["metrics"][k] for k in result_names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
