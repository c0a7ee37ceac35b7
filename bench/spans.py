"""Span tracing at the layer boundaries of the trimmoments package.

The tracer wraps module-level public functions and rebinds every
module-level name in the package that refers to the original, so calls
are seen the way other modules look the function up (``from .x import
f`` bindings included).  Spans nest on a stack; a span's self time is
its duration minus the time covered by its child spans.  Spans are
aggregated in memory per layer and per (parent, child) edge instead of
being stored one by one: a Monte Carlo round makes ~10^5 boundary
calls, and a list of raw spans would itself move the memory figures.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time

# Layer name -> the (module, function) pairs whose calls it aggregates.
LAYERS = {
    "models.sample": [("models", "sample")],
    "moments.sample_trimmed_moment": [("moments", "sample_trimmed_moment")],
    "moments.constants": [("moments", "eta_constants"),
                          ("moments", "zeta_constants")],
    "moments.population_moments": [("moments", "population_moments")],
    "quadrature.integrate": [("quadrature", "integrate")],
    "estimators.fit": [("estimators", "fit_location_scale"),
                       ("estimators", "fit_frechet")],
    "estimators.solve_scale": [("estimators", "solve_scale")],
    "estimators.mle": [("estimators", "mle_normal"),
                       ("estimators", "mle_frechet")],
    "asymptotics.are": [("asymptotics", "are")],
    "asymptotics.sigma_T": [("asymptotics", "sigma_T")],
    "asymptotics.jacobian": [("asymptotics", "jacobian_at_moments")],
    "asymptotics.s_mle": [("asymptotics", "s_mle")],
    "simulation.run_study": [("simulation", "run_study")],
    "simulation.finite_re": [("simulation", "finite_re")],
    "gof.gof_report": [("gof", "gof_report")],
    "cli.main": [("cli", "main")],
}

PACKAGE = "trimmoments"
_ROOT = "<bench>"


class Tracer:
    """Aggregated spans and boundary counters for one traced pass."""

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.total_s = {name: 0.0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.edges = {}
        self.counters = {"integrand_points": 0, "reference_consulted": 0}
        self.absent = []
        self.top_s = 0.0
        self._stack = []
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every function named in LAYERS that the package defines;
        names it no longer defines are recorded in ``absent``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, targets in LAYERS.items():
            for modname, attr in targets:
                module = sys.modules.get(f"{PACKAGE}.{modname}")
                orig = getattr(module, attr, None)
                if not callable(orig):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(layer, orig, _ARG_HOOKS.get(attr))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            self._restore.append((m, key, orig))

    def uninstall(self):
        for m, key, orig in reversed(self._restore):
            setattr(m, key, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            parent = stack[-1][0] if stack else _ROOT
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_s += duration
                self.calls[layer] += 1
                self.total_s[layer] += duration
                self.self_s[layer] += duration - frame[1]
                edge = (parent, layer)
                self.edges[edge] = self.edges.get(edge, 0) + 1

        traced.__wrapped__ = fn
        return traced

    # -- reporting ----------------------------------------------------

    def summary(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "edges": {f"{p} > {c}": n for (p, c), n in self.edges.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "top_s": self.top_s,
        }


def merge(summaries):
    """Sum the summaries of several traced processes."""
    out = Tracer().summary()
    for s in summaries:
        for key in ("calls", "total_s", "self_s", "edges", "counters"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["absent"] = sorted(set(out["absent"]) | set(s["absent"]))
        out["top_s"] += s["top_s"]
    return out


def median_summary(summaries):
    """One summary for several traced passes: the counts of the first
    pass and the median of each time."""
    out = dict(summaries[0])
    for key in ("total_s", "self_s"):
        out[key] = {name: statistics.median(s[key][name] for s in summaries)
                    for name in out[key]}
    out["top_s"] = statistics.median(s["top_s"] for s in summaries)
    return out


def _count_points(tracer, args, kwargs):
    """Count the abscissae quadrature evaluates, by wrapping the
    integrand passed to integrate()."""
    if not args:
        return args, kwargs
    f = args[0]

    def counting(fun):
        def g(x):
            tracer.counters["integrand_points"] += getattr(x, "size", 1)
            return fun(x)
        return g

    inner = getattr(f, "f", None)
    if dataclasses.is_dataclass(f) and callable(inner):
        f = dataclasses.replace(f, f=counting(inner))
    else:
        f = counting(f)
    return (f,) + tuple(args[1:]), kwargs


def _watch_reference(tracer, args, kwargs):
    """Count solve_scale calls that consulted the MLE reference."""
    if len(args) >= 5:
        ref = args[4]
    elif "mle_scale" in kwargs:
        ref = kwargs["mle_scale"]
    else:
        return args, kwargs
    seen = [False]

    def consulted():
        if not seen[0]:
            seen[0] = True
            tracer.counters["reference_consulted"] += 1
        return ref()

    if len(args) >= 5:
        args = args[:4] + (consulted,) + tuple(args[5:])
    else:
        kwargs = dict(kwargs, mle_scale=consulted)
    return args, kwargs


_ARG_HOOKS = {"integrate": _count_points, "solve_scale": _watch_reference}
