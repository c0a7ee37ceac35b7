"""Command line front end.

Subcommands:

fit       fit one dataset with one trimming scheme, JSON output
are       asymptotic relative efficiency grids, CSV output
simulate  Monte Carlo study (mean ratios and finite-sample REs), CSV
gof       goodness-of-fit table for a damages dataset, CSV

Exit codes: 0 success, 1 I/O error, 2 validation error (argparse's own
rejections included), 3 estimation failure.  A failure writes one
prefixed line to stderr and nothing to stdout; --help exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from . import asymptotics, gof, simulation
from .estimators import EstimationError, fit
from .models import SPECS, Family, ParameterVector
from .moments import SchemeError, validate_scheme

__all__ = ["main"]


def _parse_number(tok: str) -> float:
    """Float literal, also accepting simple fractions like 1/30."""
    tok = tok.strip()
    if "/" in tok:
        num, den = (float(p) for p in tok.split("/", 1))
        if den == 0.0:
            raise ValueError(f"zero denominator in {tok!r}")
        return num / den
    return float(tok)


def _parse_scheme(spec: str):
    parts = [_parse_number(p) for p in spec.split(",")]
    if len(parts) != 4:
        raise SchemeError(f"scheme must be 'a1,b1,a2,b2', got {spec!r}")
    return validate_scheme(*parts)


def _parse_grid(spec: str):
    """Either 'start:stop:step' (inclusive stop) or a comma list."""
    if ":" in spec:
        start, stop, step = (_parse_number(p) for p in spec.split(":"))
        if step <= 0:
            raise ValueError("grid step must be positive")
        if stop < start:
            raise ValueError(f"grid range {spec!r} is descending")
        span = (stop - start) / step
        if not all(map(math.isfinite, (start, stop, step, span))):
            raise ValueError(f"grid range {spec!r} is not finite")
        points = round(span) + 1
        if points > simulation.MAX_SIZE:
            raise ValueError(f"grid range {spec!r} has more than "
                             f"{simulation.MAX_SIZE} points")
        return [start + i * step for i in range(points)]
    return [_parse_number(p) for p in spec.split(",")]


def _load_data(path: str, scale: float) -> np.ndarray:
    x = gof.load_dataset(None if path == "hurricane" else path)
    if not (scale > 0.0 and math.isfinite(float(np.abs(x).max()) * scale)):
        raise ValueError(f"--scale must be positive and keep the data "
                         f"finite, got {scale}")
    return x * scale


@contextlib.contextmanager
def _output(path):
    """stdout for no path or '-', otherwise the file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as out:
            yield out


def _write_csv(path, rows):
    """Write rows that are all computed, so a failure writes nothing."""
    with _output(path) as out:
        csv.writer(out).writerows(rows)


def _cmd_fit(args) -> int:
    scale = args.scale
    if scale is None:
        scale = gof.DATA_SCALE if args.data == "hurricane" else 1.0
    data = _load_data(args.data, scale)
    scheme = validate_scheme(_parse_number(args.a1), _parse_number(args.b1),
                             _parse_number(args.a2), _parse_number(args.b2))
    family = Family.parse(args.model)
    spec = SPECS[family]
    result = fit(data, scheme, family)
    try:
        cov, se = asymptotics.delta_method(result)
    except asymptotics.SingularityError:
        cov, se = None, None
    lbp, ubp = asymptotics.breakdown_points(scheme)
    est = dict(zip(spec.names, spec.estimates(result.params)))
    if spec.exp_location and scale != 1.0:
        est["sigma_scaled"] = est["sigma"] / scale
    doc = {
        "model": family.value,
        "scheme": {"a1": scheme.a1, "b1": scheme.b1,
                   "a2": scheme.a2, "b2": scheme.b2,
                   "ordering": scheme.tag.value},
        "n": result.n,
        "estimates": est,
        "branch": result.branch.value,
        "trimmed_moments": {"t1": result.t1, "t2": result.t2},
        "standard_errors": None if se is None else dict(zip(spec.names, se)),
        "covariance": None if cov is None else cov.tolist(),
        "breakdown_points": {"lower": lbp, "upper": ubp},
        "discriminant_negative": bool(result.discriminant_negative),
    }
    text = json.dumps(doc, indent=2, allow_nan=False)
    with _output(args.output) as out:
        out.write(text + "\n")
    return 0


def _model_flag(args, family: Family) -> str:
    """The model's parameter besides sigma, --theta or --beta, which
    must be given; the other flag is rejected instead of ignored."""
    pname = SPECS[family].names[0]
    for flag in ("theta", "beta"):
        if (getattr(args, flag) is None) == (flag == pname):
            raise ValueError(f"--model {family.value} takes --{pname}"
                             + ("" if flag == pname else f", not --{flag}"))
    return pname


def _cmd_are(args) -> int:
    family = Family.parse(args.model)
    schemes = [_parse_scheme(s) for s in args.scheme]
    if not schemes:
        raise SchemeError("at least one --scheme is required")
    pname = _model_flag(args, family)
    grid = _parse_grid(getattr(args, pname))
    points = [ParameterVector(**{pname: v, "sigma": args.sigma}) for v in grid]
    rows = [["scheme"] + [f"{pname}={v:g}" for v in grid]]
    for scheme in schemes:
        rows.append([scheme.label()] + [
            f"{asymptotics.are(family, p, scheme).are:.3f}" for p in points])
    _write_csv(args.output, rows)
    return 0


def _cmd_simulate(args) -> int:
    family = Family.parse(args.model)
    schemes = [_parse_scheme(s) for s in args.scheme]
    p1 = _model_flag(args, family)
    params = ParameterVector(**{p1: getattr(args, p1), "sigma": args.sigma})
    sizes = _parse_grid(args.n)
    if not all(float(n).is_integer() for n in sizes):
        raise ValueError(f"--n takes whole numbers, got {args.n!r}")
    configs = [simulation.StudyConfig(
        family, params, int(n), schemes, replicates=args.replicates,
        repetitions=args.repetitions, seed=args.seed) for n in sizes]
    for cfg in configs:
        cfg.validate()
    rows = [["estimator", "n", f"mean_{p1}_ratio", "mean_sigma_ratio", "re",
             f"sd_{p1}_ratio", "sd_sigma_ratio", "sd_re", "failures"]]
    for cfg in configs:
        for r in simulation.run_study(cfg).rows:
            rows.append([r.label, cfg.n,
                         f"{r.mean_ratio_1:.4f}", f"{r.mean_ratio_2:.4f}",
                         f"{r.re:.4f}", f"{r.sd_ratio_1:.4f}",
                         f"{r.sd_ratio_2:.4f}", f"{r.sd_re:.4f}", r.failures])
    _write_csv(args.output, rows)
    return 0


def _cmd_gof(args) -> int:
    scale = gof.DATA_SCALE if args.scale is None else args.scale
    data = _load_data(args.data, scale)
    schemes = [_parse_scheme(s) for s in args.scheme]
    datasets = [("original", data)]
    if args.modified:
        datasets.append(("modified", gof.modify_dataset(data)))
    rows = [["dataset", "estimator",
             "ln_theta", "ln_sigma", "ln_fit", "ln_aic", "ln_bic",
             "fr_beta", "fr_sigma_scaled", "fr_fit", "fr_aic", "fr_bic"]]
    estimators = [("MLE", None)] + [(s.label(), s) for s in schemes]
    for tag, x in datasets:
        for label, scheme in estimators:
            rl = gof.gof_report(Family.LOGNORMAL, x, scheme)
            rf = gof.gof_report(Family.FRECHET, x, scheme)
            rows.append([
                tag, label,
                f"{rl.params.theta:.2f}", f"{rl.params.sigma:.2f}",
                f"{rl.fit:.4f}", f"{rl.aic:.0f}", f"{rl.bic:.0f}",
                f"{rf.params.beta:.2f}", f"{rf.params.sigma / scale:.2f}",
                f"{rf.fit:.4f}", f"{rf.aic:.0f}", f"{rf.bic:.0f}",
            ])
    _write_csv(args.output, rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose rejections raise ValueError, which `main`
    reports as one validation-error line, instead of printing a usage
    block and exiting; its subparsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="trimmoments",
        description="Method of trimmed moments estimation and diagnostics.")
    sub = p.add_subparsers(dest="command", required=True)
    families = [family.value for family in Family]

    f = sub.add_parser("fit", help="fit one dataset with one scheme")
    f.add_argument("--model", required=True, choices=families)
    f.add_argument("--data", required=True,
                   help="one-column CSV path, or 'hurricane' for the bundled dataset")
    f.add_argument("--a1", required=True)
    f.add_argument("--b1", required=True)
    f.add_argument("--a2", required=True)
    f.add_argument("--b2", required=True)
    f.add_argument("--scale", type=float, default=None,
                   help="multiply data by this before fitting "
                        "(default 1; 1e9 for the bundled dataset)")
    f.add_argument("-o", "--output", default=None)
    f.set_defaults(func=_cmd_fit)

    a = sub.add_parser("are", help="asymptotic relative efficiency grid")
    a.add_argument("--model", required=True, choices=families)
    a.add_argument("--sigma", type=float, required=True)
    a.add_argument("--theta", default=None,
                   help="grid 'start:stop:step' or comma list (location-scale)")
    a.add_argument("--beta", default=None,
                   help="grid 'start:stop:step' or comma list (Frechet)")
    a.add_argument("--scheme", action="append", default=[],
                   help="a1,b1,a2,b2 (repeatable)")
    a.add_argument("-o", "--output", default=None)
    a.set_defaults(func=_cmd_are)

    s = sub.add_parser("simulate", help="Monte Carlo efficiency study")
    s.add_argument("--model", required=True, choices=families)
    s.add_argument("--sigma", type=float, required=True)
    s.add_argument("--theta", type=float, default=None,
                   help="true location (location-scale models)")
    s.add_argument("--beta", type=float, default=None,
                   help="true tail index (Frechet)")
    s.add_argument("--n", required=True, help="sample sizes, comma list")
    for name in ("replicates", "repetitions", "seed"):
        s.add_argument(f"--{name}", type=int,
                       default=simulation.StudyConfig._field_defaults[name])
    s.add_argument("--scheme", action="append", default=[])
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=_cmd_simulate)

    g = sub.add_parser("gof", help="goodness-of-fit table")
    g.add_argument("--data", default="hurricane",
                   help="one-column CSV path (default: bundled dataset)")
    g.add_argument("--scale", type=float, default=None,
                   help="unit scale of the data (default 1e9)")
    g.add_argument("--scheme", action="append", default=[])
    g.add_argument("--modified", action="store_true",
                   help="also report the max*10 modified dataset")
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=_cmd_gof)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except EstimationError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
