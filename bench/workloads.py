"""The four benchmark workloads: their load, output checks and traced passes.

Every workload runs closed-loop in one process: an operation starts
only after the previous one finished.  ``measure`` loops until the
deadline and returns the end-to-end figures; ``traced`` runs one fixed,
seed-determined unit of work in TRACE_PASSES alternating untraced and
traced passes, so the boundary counts repeat exactly for a seed and the
medians of the two kinds of pass give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri, stdtrit

from trimmoments import asymptotics, simulation
from trimmoments.models import Family, ParameterVector
from trimmoments.moments import validate_scheme

import spans

BENCH = Path(__file__).resolve().parent
clock = time.perf_counter
# Untraced and traced passes of a traced run, alternated.
TRACE_PASSES = {False: 3, True: 1}


# -- host speed --------------------------------------------------------

# Nominal time of one _kernel() probe, about its median inside runs on
# the machine the benchmark was written on.  It only sets the scale of
# the host-normalised figures (bench/README.md).
REFERENCE_KERNEL_S = 0.0042
# Share of a run's time spent probing the host's speed.  Probes only
# fall between operations, so with Fréchet rounds of ~2 s a larger share
# samples the host's state around each round better.
PROBE_SHARE = 0.1
# Stdlib modules whose import in a fresh interpreter probes the host's
# speed for start-up work (setup_s, the CLI processes): the same kind of
# work as importing the package (unmarshalling, executing module code,
# loading extension modules) but independent of it, numpy and scipy.
STDLIB_IMPORTS = ("argparse, asyncio, csv, dataclasses, decimal, email.parser, "
                  "fractions, http.server, json, logging.handlers, "
                  "multiprocessing.pool, pydoc, sqlite3, statistics, tarfile, "
                  "unittest, urllib.request, xml.dom.minidom, "
                  "xml.etree.ElementTree, zipfile")


def _kernel():
    """A fixed mix of interpreter work, a heap and numpy and scipy.special
    calls on 15-element arrays, like the package's hot paths (adaptive
    quadrature, per-sample fits) but independent of the package."""
    x = np.linspace(0.01, 0.99, 15)
    total = 0.0
    heap = []
    for i in range(800):
        y = ndtri(x) * (1 + i % 5)
        total += float(np.dot(y, x)) + float(np.log(x[i % 15]))
        heapq.heappush(heap, (-abs(total) % 7, i))
        if len(heap) > 20:
            heapq.heappop(heap)
    return total


class HostSpeed:
    """Times a kernel between operations, ``share`` of the run.

    The shared host's speed drifts by ~20% between runs; the same drift
    shows in the kernel, so dividing it out leaves the program's own
    speed.  It also changes within a round of a few seconds, so a probe
    next to one operation does not track that operation: the run's
    figures are divided by the kernel's figures over the whole run.
    Probes run outside every timed region."""

    def __init__(self, kernel=_kernel, reference_s=REFERENCE_KERNEL_S,
                 share=PROBE_SHARE):
        self.kernel, self.reference_s, self.share = kernel, reference_s, share
        self.samples = []
        self._start = None
        self._spent = 0.0

    def probe(self):
        """Probe until ``share`` of the run so far went into probing."""
        now = clock()
        if self._start is None:
            self._start = now
        while not self.samples or self._spent < self.share * (now - self._start):
            start = clock()
            self.kernel()
            self.samples.append(clock() - start)
            self._spent += self.samples[-1]

    def slowdown(self):
        """Mean kernel time over the reference: above 1 on a slower host.
        The mean, not the median, tracks the run's figures best (six
        paired mc-frechet runs: 4-6% spread against 14-20%)."""
        return statistics.fmean(self.samples) / self.reference_s


@dataclass
class Context:
    """What every workload gets: seed, time budget, size and references."""

    seed: int
    seconds: float
    tiny: bool
    refs: dict
    root: Path
    env: dict
    host: HostSpeed = field(default_factory=HostSpeed)


class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, ops, message):
        self.failed += ops
        if len(self.messages) < 20:
            self.messages.append(message)


def _passes(ctx, run):
    """Alternate untraced and traced passes of ``run(j, tracer)``,
    TRACE_PASSES of each; j numbers the passes and tracer is None in an
    untraced pass, a fresh spans.Tracer in a traced one.  Returns the
    median untraced and traced wall times and the passes' results,
    untraced ones first."""
    walls, results = ([], []), ([], [])
    for j in range(2 * TRACE_PASSES[ctx.tiny]):
        traced = j % 2
        start = clock()
        results[traced].append(run(j, spans.Tracer() if traced else None))
        walls[traced].append(clock() - start)
    return (statistics.median(walls[0]), statistics.median(walls[1]),
            results)


def _check_counts(summaries, what, out):
    """Traced passes of the same work must count the same calls."""
    first = summaries[0]
    for s in summaries[1:]:
        if s["calls"] != first["calls"] or s["counters"] != first["counters"]:
            out.fail(1, f"{what}: traced passes counted different calls")


# -- Monte Carlo studies (mc-normal, mc-frechet) -----------------------

# Replicates per study round, the simulation table's size.  A round is
# one repetition; the run repeats rounds, at least MC_MIN_ROUNDS (the
# table's three repetitions), which gives the reference check the
# degrees of freedom for its standard error.
MC_REPLICATES = {False: 2000, True: 100}
MC_MIN_ROUNDS = 3
# Family-wise chance that a correct program fails one run's reference
# check; split evenly (Bonferroni) over the row cells.
MC_FALSE_ALARM = 1e-6
# Half a unit in the last printed digit of the reference cells.
MC_ROUNDING = (0.005, 0.005, 0.0005)


def _study(ctx, name, replicates, index):
    spec = ctx.refs["mc"][name]
    family = Family.parse(spec["family"])
    schemes = [validate_scheme(*q) for q in ctx.refs["mc"]["schemes"]]
    return simulation.StudyConfig(
        family, ParameterVector(**spec["params"]), spec["n"], schemes,
        replicates=replicates, repetitions=1,
        seed=ctx.seed * 100_000 + index)


def _row_values(rows):
    return [(r.mean_ratio_1, r.mean_ratio_2, r.re, r.failures) for r in rows]


def _check_mc_rows(ctx, name, rounds, replicates, out):
    """Compare the pooled round means with the reference cells.

    The tolerance is a Student-t multiple of the combined standard
    error of the run's mean (from the spread of its rounds) and of the
    reference cell (the same per-replicate spread at the reference's
    replicate count), plus the cell's rounding."""
    cells = ctx.refs["mc"][name]["cells"]
    ref_reps = ctx.refs["mc"]["reference_replicates"]
    k = len(rounds)
    if k < 2:
        out.fail(1, f"{name}: only {k} complete round(s), cannot check")
        return
    quantile = float(stdtrit(k - 1, 1.0 - MC_FALSE_ALARM / (2 * 3 * len(cells))))
    for idx, cell in enumerate(cells):
        for c in range(3):
            values = [rows[idx][c] for rows in rounds]
            sd = statistics.stdev(values)
            se = math.sqrt(sd * sd / k + sd * sd * replicates / ref_reps)
            tol = quantile * se + MC_ROUNDING[c]
            mean = statistics.fmean(values)
            if not abs(mean - cell[c]) <= tol:
                out.fail(k * replicates,
                         f"{name}: row {idx} cell {c} = {mean:.4f}, "
                         f"reference {cell[c]} +- {tol:.4f}")


def measure_mc(ctx, name):
    """Rounds until the deadline, the last of them a rerun of round 0
    that must give identical rows."""
    out = Outcome()
    replicates = MC_REPLICATES[ctx.tiny]
    deadline = clock() + ctx.seconds
    latencies, fits = [], 0

    def timed_round(index):
        nonlocal fits
        ctx.host.probe()
        cfg = _study(ctx, name, replicates, index)
        attempted = (len(cfg.schemes) + 1) * replicates
        out.attempted += attempted
        start = clock()
        try:
            result = simulation.run_study(cfg)
        except Exception as exc:  # a study that raises is a failed round
            out.fail(attempted, f"{name}: round {index} raised {exc!r}")
            return None
        latencies.append(clock() - start)
        rows = _row_values(result.rows)
        failures = sum(r[3] for r in rows)
        if failures:
            out.fail(failures, f"{name}: round {index} had {failures} failed fits")
        fits += attempted - failures
        return rows

    rounds = []
    # Stop when the next round and the rerun would not fit.
    while len(rounds) < MC_MIN_ROUNDS or (
            latencies and clock() + 2 * statistics.median(latencies) < deadline):
        rounds.append(timed_round(len(rounds)))
    again = timed_round(0)
    if again != rounds[0]:
        out.fail(replicates, f"{name}: rerun of round 0 gave {again!r:.200}")
    _check_mc_rows(ctx, name, [r for r in rounds if r is not None],
                   replicates, out)
    rate = fits / sum(latencies)
    latency = statistics.median(latencies)
    return out, rate, latency, {
        "fits_per_s": (rate, "1/s"),
        "round_ms.p50": (1e3 * latency, "ms"),
        "study_rounds": (len(latencies), "count"),
        "replicates_per_round": (replicates, "count"),
    }


def traced_mc(ctx, name):
    out = Outcome()
    replicates = MC_REPLICATES[ctx.tiny]
    cfg = _study(ctx, name, replicates, 0)
    ops = (len(cfg.schemes) + 1) * replicates
    # Fill the constant caches first, so every timed pass does equal work.
    simulation.run_study(_study(ctx, name, MC_REPLICATES[True], 1))

    def run(j, tracer):
        with tracer or contextlib.nullcontext():
            rows = _row_values(simulation.run_study(cfg).rows)
        return rows, tracer and tracer.summary()

    untraced, traced, (plain, passes) = _passes(ctx, run)
    out.attempted = ops * (len(plain) + len(passes))
    rows = plain[0][0]
    if any(r != rows for r, _ in plain + passes):
        out.fail(ops, f"{name}: passes gave different rows")
    summaries = [summary for _, summary in passes]
    _check_counts(summaries, name, out)
    failures = sum(r[3] for r in rows)
    return (out, spans.median_summary(summaries), untraced, traced,
            failures / ops)


# -- ARE design sweep (are-design) -------------------------------------

ARE_SWEEP = {False: 1000, True: 40}
ARE_SLOTS = {False: 25, True: 2}
ARE_POINTS = 3
LATTICE = 30          # proportions k/100, k = 0..30
# Kinds cycle in fixed shares (one equal scheme in five, then the two
# nestings alternately) and families alternate, so every seed draws the
# same mix and only the lattice points differ.
KINDS = ("equal", "cond8", "cond12", "cond8", "cond12")
# Nonzero proportions of traced-run pass j are shifted by (j + 1) * OFFSET,
# so every pass sees schemes no earlier pass evaluated.
OFFSET = 1e-6
ARE_TOL_ONE = 1e-9
THETA_CURVE = [-25.0 + 0.5 * i for i in range(101)]
BETA_CURVE = [0.1 + 0.1 * i for i in range(250)]


def _patterns(ctx, count):
    """Seed-drawn nested schemes on the integer lattice, each with its
    family and parameter points."""
    rng = np.random.default_rng([ctx.seed, 7])
    reference = {tuple(round(100 * v) for v in q)
                 for q in ctx.refs["are"]["schemes"]}
    seen = set(reference) | {(0, 0, 0, 0)}
    out = []
    while len(out) < count:
        a1, b1, a2, b2 = (int(v) for v in rng.integers(0, LATTICE + 1, 4))
        kind = KINDS[len(out) % len(KINDS)]
        if kind == "equal":
            a2, b2 = a1, b1
        elif kind == "cond8":
            a2, a1 = sorted((a1, a2))      # a2 <= a1, b1 <= b2
            b1, b2 = sorted((b1, b2))
        else:
            a1, a2 = sorted((a1, a2))      # a1 <= a2, b2 <= b1
            b2, b1 = sorted((b1, b2))
        key = (a1, b1, a2, b2)
        if key in seen:
            continue
        seen.add(key)
        if len(out) % 2:
            points = [THETA_CURVE[i] for i in
                      rng.choice(len(THETA_CURVE), ARE_POINTS, replace=False)]
            out.append((key, Family.NORMAL, points))
        else:
            points = [BETA_CURVE[i] for i in
                      rng.choice(len(BETA_CURVE), ARE_POINTS, replace=False)]
            out.append((key, Family.FRECHET, points))
    return out


def _params(family, value, refs):
    if family is Family.FRECHET:
        return ParameterVector(sigma=refs["are"]["frechet"]["sigma"], beta=value)
    return ParameterVector(theta=value, sigma=refs["are"]["normal"]["sigma"])


def _scheme(key, shift):
    return validate_scheme(*(k / 100 + shift if k else 0.0 for k in key))


def _are_row(family, scheme, grid, refs):
    return [asymptotics.are(family, _params(family, v, refs), scheme).are
            for v in grid]


def _check_are_range(values, what, out):
    bad = [v for v in values if not (0.0 < v <= 1.0 + ARE_TOL_ONE)]
    if bad:
        out.fail(len(bad), f"{what}: ARE outside (0, 1]: {bad[:3]}")


def _are_setup(ctx, out):
    """Check the published tables; this also fills the caches the warm
    phase relies on."""
    refs = ctx.refs["are"]
    tol = refs["tolerance"]
    for fam_name, family in (("normal", Family.NORMAL),
                             ("frechet", Family.FRECHET)):
        table = refs[fam_name]
        for quad, cells in zip(refs["schemes"], table["cells"]):
            values = _are_row(family, validate_scheme(*quad), table["grid"],
                              ctx.refs)
            out.attempted += len(values)
            for v, cell, g in zip(values, cells, table["grid"]):
                if not abs(v - cell) <= tol:
                    out.fail(1, f"{fam_name} {quad} at {g}: ARE {v:.4f}, "
                                f"published {cell}")
    # The untrimmed window occurs in many sweep schemes; fill its
    # constants here so that every sweep pass starts from the same state.
    for family in (Family.NORMAL, Family.FRECHET):
        _are_row(family, validate_scheme(0.0, 0.0, 0.0, 0.0), [1.0], ctx.refs)


def _cold_pass(ctx, patterns, shift, out):
    """Evaluate every pattern once, cold; returns per-scheme latencies
    and the normal schemes to revisit under lognormal."""
    latencies, normal = [], []
    for key, family, grid in patterns:
        scheme = _scheme(key, shift)
        start = clock()
        values = _are_row(family, scheme, grid, ctx.refs)
        latencies.append(clock() - start)
        out.attempted += len(values)
        _check_are_range(values, f"{family.value} {key}", out)
        if family is Family.NORMAL:
            normal.append((scheme, grid, values))
            if key[:2] == key[2:] and max(values) - min(values) > ARE_TOL_ONE:
                out.fail(len(values), f"equal scheme {key}: normal ARE "
                                      f"depends on theta: {values}")
    return latencies, normal


def _warm_pass(ctx, normal):
    """Warm evaluations: lognormal revisits of the normal sweep schemes
    (which share their constants) and the fine published curves.
    Returns (points, seconds, lognormal values, curve values)."""
    refs = ctx.refs["are"]
    start = clock()
    lognormal = [_are_row(Family.LOGNORMAL, s, grid, ctx.refs)
                 for s, grid, _ in normal]
    curves = []
    for quad in refs["schemes"]:
        scheme = validate_scheme(*quad)
        curves.append(_are_row(Family.NORMAL, scheme, THETA_CURVE, ctx.refs))
        curves.append(_are_row(Family.FRECHET, scheme, BETA_CURVE, ctx.refs))
    elapsed = clock() - start
    points = sum(map(len, lognormal)) + sum(map(len, curves))
    return points, elapsed, lognormal, curves


def _check_warm(ctx, normal, lognormal, curves, out):
    refs = ctx.refs["are"]
    for (scheme, grid, values), logs in zip(normal, lognormal):
        if any(abs(a - b) > 1e-12 for a, b in zip(values, logs)):
            out.fail(len(logs), f"{scheme.label()}: lognormal ARE {logs} "
                                f"differs from normal ARE {values}")
    index = {"normal": lambda g: round((g - THETA_CURVE[0]) / 0.5),
             "frechet": lambda g: round((g - BETA_CURVE[0]) / 0.1)}
    for j, quad in enumerate(refs["schemes"]):
        for k, fam_name in enumerate(("normal", "frechet")):
            curve = curves[2 * j + k]
            _check_are_range(curve, f"{fam_name} curve {quad}", out)
            table = refs[fam_name]
            for g, cell in zip(table["grid"], table["cells"][j]):
                v = curve[index[fam_name](g)]
                if not abs(v - cell) <= refs["tolerance"]:
                    out.fail(1, f"{fam_name} curve {quad} at {g}: ARE "
                                f"{v:.4f}, published {cell}")


def measure_are(ctx):
    """The sweep is cut into ARE_SLOTS chunks spread evenly over the run,
    each followed by warm passes until its slot ends, so the cold
    latencies sample the whole run while the cold work (and the cache
    it leaves behind) stays fixed."""
    out = Outcome()
    start = clock()
    _are_setup(ctx, out)
    patterns = _patterns(ctx, ARE_SWEEP[ctx.tiny])
    slots = ARE_SLOTS[ctx.tiny]
    latencies, points, seconds = [], 0, 0.0
    for j in range(slots):
        chunk = patterns[j * len(patterns) // slots:
                         (j + 1) * len(patterns) // slots]
        slot_end = start + (j + 1) * ctx.seconds / slots
        ctx.host.probe()
        cold, normal = _cold_pass(ctx, chunk, 0.0, out)
        latencies += cold
        first = None
        while first is None or clock() < slot_end:
            ctx.host.probe()
            n, elapsed, lognormal, curves = _warm_pass(ctx, normal)
            out.attempted += n
            points += n
            seconds += elapsed
            if first is None:
                first = (lognormal, curves)
                _check_warm(ctx, normal, lognormal, curves, out)
            elif (lognormal, curves) != first:
                out.fail(n, "a warm pass gave different values from the first")
    rate = points / seconds
    latency = statistics.median(latencies)
    return out, rate, latency, {
        "are_points_per_s": (rate, "1/s"),
        "scheme_ms.p50": (1e3 * latency, "ms"),
        "scheme_ms.p99": (1e3 * statistics.quantiles(latencies, n=100)[98], "ms"),
        "cold_schemes": (len(latencies), "count"),
        "warm_points": (points, "count"),
    }


def traced_are(ctx):
    """Pass j evaluates the sweep shifted by (j + 1) * OFFSET, so every
    pass is cold; the counts come from the first traced pass."""
    out = Outcome()
    _are_setup(ctx, out)
    patterns = _patterns(ctx, ARE_SWEEP[ctx.tiny])

    def run(j, tracer):
        with tracer or contextlib.nullcontext():
            _, normal = _cold_pass(ctx, patterns, (j + 1) * OFFSET, out)
            n, _, lognormal, curves = _warm_pass(ctx, normal)
        return normal, n, lognormal, curves, tracer and tracer.summary()

    untraced, traced, (plain, passes) = _passes(ctx, run)
    for normal, n, lognormal, curves, _ in plain + passes:
        out.attempted += n
        _check_warm(ctx, normal, lognormal, curves, out)
        if curves != plain[0][3]:
            out.fail(n, "curves differ between passes")
    summaries = [p[4] for p in passes]
    return out, spans.median_summary(summaries), untraced, traced, 0.0


# -- reference CLI invocations (cli-reference) -------------------------

CLI_TOL_PRINT = 5e-4   # ARE cells are printed with three decimals
CLI_TIMEOUT_S = 120
# The CLI processes' host probe: a fresh interpreter importing
# STDLIB_IMPORTS, about one per invocation.  It tracks them where the
# in-process kernel does not (six 18-second trials: invocation p50
# spread 3.5% after dividing by it, 12% by the kernel).
CLI_PROBE_SHARE = 0.15
# Nominal wall time of one such probe; it only sets the scale.
REFERENCE_CLI_PROBE_S = 0.2


@dataclass
class CliRun:
    """One finished CLI process."""

    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    rss_mb: float        # peak resident set of this process alone


def _invoke(ctx, argv, traced=False):
    head = [sys.executable, str(BENCH / "traced_cli.py")] if traced \
        else [sys.executable, "-m", "trimmoments.cli"]
    start = clock()
    proc = subprocess.Popen(head + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ctx.env, cwd=ctx.root)
    killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    killer.start()
    with proc.stdout, proc.stderr, ThreadPoolExecutor(1) as pool:
        stderr = pool.submit(proc.stderr.read)
        stdout = proc.stdout.read()
        stderr = stderr.result()
    # wait4 instead of proc.wait(): it also gives the child's own rusage.
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    return CliRun(elapsed, proc.returncode, stdout, stderr,
                  usage.ru_maxrss / 1024.0)


def _check_cli_output(ctx, name, stdout, out):
    refs = ctx.refs
    text = stdout.decode()
    try:
        if name.startswith("fit-"):
            estimates = json.loads(text)["estimates"]
            for key, want in refs["cli"]["fit_estimates"][name].items():
                got = estimates[key]
                if not math.isclose(got, want, rel_tol=1e-9):
                    out.fail(1, f"{name}: {key} = {got!r}, captured {want!r}")
        elif name.startswith("are-"):
            table = refs["are"][name[4:]]
            rows = list(csv.reader(io.StringIO(text)))[1:]
            if len(rows) != len(table["cells"]):
                out.fail(1, f"{name}: {len(rows)} rows")
            tol = refs["are"]["tolerance"] + CLI_TOL_PRINT
            for row, cells in zip(rows, table["cells"]):
                for got, cell in zip(row[1:], cells):
                    if not abs(float(got) - cell) <= tol:
                        out.fail(1, f"{name}: {row[0]} cell {got}, published {cell}")
        else:
            rows = {(r["dataset"], r["estimator"]): r
                    for r in csv.DictReader(io.StringIO(text))}
            for spot in refs["cli"]["gof_spot_rows"]:
                got = float(rows[(spot["dataset"], spot["estimator"])][spot["column"]])
                # printed with two decimals or as a whole number
                if not abs(got - spot["value"]) <= spot["tolerance"] + 0.005:
                    out.fail(1, f"{name}: {spot} got {got}")
    except (KeyError, ValueError, IndexError) as exc:
        out.fail(1, f"{name}: unparsable output ({exc!r})")


def measure_cli(ctx):
    out = Outcome()
    invocations = ctx.refs["cli"]["invocations"]
    probe = [sys.executable, "-c", "import " + STDLIB_IMPORTS]
    ctx.host = HostSpeed(
        lambda: subprocess.run(probe, env=ctx.env, cwd=ctx.root, check=True,
                               capture_output=True, timeout=CLI_TIMEOUT_S),
        REFERENCE_CLI_PROBE_S, CLI_PROBE_SHARE)
    rng = np.random.default_rng([ctx.seed, 11])
    deadline = clock() + ctx.seconds
    latencies, first, rss = [], {}, 0.0
    while len(first) < len(invocations) or clock() < deadline:
        for i in rng.permutation(len(invocations)):
            name = list(invocations)[i]
            ctx.host.probe()
            run = _invoke(ctx, invocations[name])
            out.attempted += 1
            latencies.append(run.seconds)
            rss = max(rss, run.rss_mb)
            if run.returncode != 0 or run.stderr:
                out.fail(1, f"{name}: exit {run.returncode}, "
                            f"stderr {run.stderr[:200]!r}")
            elif name not in first:
                first[name] = run.stdout
                _check_cli_output(ctx, name, run.stdout, out)
            elif run.stdout != first[name]:
                out.fail(1, f"{name}: stdout differs from the first invocation")
            if len(first) == len(invocations) and clock() >= deadline:
                break
    rate = len(latencies) / sum(latencies)
    latency = statistics.median(latencies)
    return out, rate, latency, {
        "cli_s.p50": (latency, "s"),
        "invocations_per_s": (rate, "1/s"),
        "invocations": (len(latencies), "count"),
        # the CLI processes' peak, not this harness's
        "peak_rss_mb": (rss, "MB"),
    }


def traced_cli(ctx):
    out = Outcome()
    invocations = ctx.refs["cli"]["invocations"]

    def run(j, tracer):
        return [(name, _invoke(ctx, argv, traced=tracer is not None))
                for name, argv in invocations.items()]

    untraced, traced, (plain, passes) = _passes(ctx, run)
    first = {name: r.stdout for name, r in plain[0]}
    summaries = []
    for k, results in enumerate(plain + passes):
        is_traced = k >= len(plain)
        children = []
        for name, r in results:
            out.attempted += 1
            if r.returncode or (r.stderr and not is_traced):
                out.fail(1, f"{name}: exit {r.returncode}, "
                            f"stderr {r.stderr[:200]!r}")
                continue
            if r.stdout != first[name]:
                out.fail(1, f"{name}: stdout differs between passes")
            if is_traced:
                children.append(json.loads(r.stderr.decode().splitlines()[-1]))
        if is_traced:
            summaries.append(spans.merge(children))
    _check_counts(summaries, "cli-reference", out)
    return out, spans.median_summary(summaries), untraced, traced, 0.0


# Each returns (outcome, throughput in 1/s, median latency in s, named
# metrics), all as measured.
MEASURE = {
    "mc-normal": lambda ctx: measure_mc(ctx, "mc-normal"),
    "mc-frechet": lambda ctx: measure_mc(ctx, "mc-frechet"),
    "are-design": measure_are,
    "cli-reference": measure_cli,
}

TRACED = {
    "mc-normal": lambda ctx: traced_mc(ctx, "mc-normal"),
    "mc-frechet": lambda ctx: traced_mc(ctx, "mc-frechet"),
    "are-design": traced_are,
    "cli-reference": traced_cli,
}
