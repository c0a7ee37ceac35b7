"""Smoke test of the benchmark at tiny size.

Usage (from the repository root): python3 bench/smoke.py

Checks that every workload emits every end-to-end metric (untraced) and
every per-layer metric (traced) of BENCHMARK.json with its unit, and
the workload's named metrics in the report; that a deliberately wrong
reference value gives a non-zero failed_frac and a non-zero exit; and
that the benchmark refuses to run without the package sources.  Exits
non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMED = {
    "mc-normal": ("setup_s", "peak_rss_mb", "failed_frac", "fits_per_s"),
    "mc-frechet": ("setup_s", "peak_rss_mb", "failed_frac", "fits_per_s"),
    "are-design": ("setup_s", "peak_rss_mb", "failed_frac", "scheme_ms.p50",
                   "scheme_ms.p99", "are_points_per_s"),
    "cli-reference": ("setup_s", "peak_rss_mb", "failed_frac", "cli_s.p50"),
}


def run(workload, trace, cwd=ROOT, extra=()):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    report = json.loads("\n".join(lines[:-1])) if result else None
    return proc, report, result


def expect(cond, message):
    if not cond:
        sys.exit(f"smoke: FAILED: {message}")


def check_metrics(where, metrics, declared):
    for spec in declared:
        got = metrics.get(spec["name"])
        expect(got is not None, f"{where}: metric {spec['name']} missing")
        expect(got["unit"] == spec["unit"],
               f"{where}: {spec['name']} has unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)),
               f"{where}: {spec['name']} is not a number")


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in config["workloads"]:
        name = w["name"]
        proc, report, result = run(name, 0)
        expect(proc.returncode == 0 and result and result["correct"],
               f"{name} untraced: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        check_metrics(name, result["metrics"], config["end_to_end"])
        for metric in NAMED[name]:
            got = report["metrics"].get(metric)
            expect(got and got["unit"], f"{name}: report lacks {metric}")
        expect(report["metrics"]["failed_frac"]["value"] == 0.0,
               f"{name}: failed_frac is not 0")
        proc, report, result = run(name, 1)
        expect(proc.returncode == 0 and result and result["correct"],
               f"{name} traced: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        check_metrics(f"{name} traced", result["metrics"], config["per_layer"])
        print(f"smoke: {name} ok", flush=True)

    refs = json.loads((BENCH / "reference.json").read_text())
    refs["are"]["normal"]["cells"][0][0] += 0.1
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".smoke-") as tmp:
        wrong = Path(tmp) / "reference.json"
        wrong.write_text(json.dumps(refs))
        proc, report, result = run("are-design", 0,
                                   extra=("--references", str(wrong)))
    expect(proc.returncode != 0, "a wrong reference did not fail the run")
    expect(result and not result["correct"] and result["failed"] > 0,
           "a wrong reference was not counted as failed")
    expect(report["metrics"]["failed_frac"]["value"] > 0.0,
           "a wrong reference left failed_frac at 0")
    print("smoke: wrong reference detected", flush=True)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".smoke-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, _, result = run("mc-normal", 0, cwd=tmp)
    expect(proc.returncode != 0 and result is None,
           "the run did not refuse a checkout without sources")
    print("smoke: missing sources refused", flush=True)


if __name__ == "__main__":
    main()
