"""Trimmed-moment estimators with sign disambiguation.

Every family is fitted by one location-scale estimator on transformed
data (`models.SPECS`): the Frechet tail index is the scale of log-data.
The formulas read the family's c-form constants (`moments.eta_constants`).
The scale solves a quadratic in the trimmed moments, so two candidates
exist: minus = -FT + ST and plus = FT + ST, where FT is the square-root
term and ST the linear term.  Every scheme takes the positive candidate,
and when both are positive the one nearer the full-sample MLE, one row
of `FamilySpec.mle_rows`; an equal scheme's ST is 0, so it takes FT.
`mle_normal` and `mle_frechet` are re-exported here only for the span
tracer of bench/spans.py.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .families import Branch, EstimationError, Family, ParameterVector
from .models import SPECS, mle_frechet, mle_normal  # noqa: F401  (re-exported)
from .moments import (
    MomentConstants,
    SchemeTag,
    TrimmingScheme,
    eta_constants,
    trim_counts,
)

__all__ = [
    "CandidatePair",
    "FitResult",
    "mle_normal",
    "mle_frechet",
    "candidate_scales",
    "solve_scale",
    "row_moments",
    "solve_rows",
    "fit",
    "fit_location_scale",
    "fit_frechet",
]


class CandidatePair(NamedTuple):
    """Square-root and linear terms of the two scale candidates."""

    ft: float
    st: float
    discriminant: float

    @property
    def discriminant_negative(self):
        return self.discriminant < 0.0

    @property
    def minus(self) -> float:
        return -self.ft + self.st

    @property
    def plus(self) -> float:
        return self.ft + self.st


class FitResult(NamedTuple):
    """A fit's parameters, the `Branch` it took and its trimmed moments."""

    family: Family
    scheme: TrimmingScheme
    params: ParameterVector
    branch: Branch
    t1: float
    t2: float
    n: int
    discriminant_negative: bool


def candidate_scales(t1, t2, c: MomentConstants) -> CandidatePair:
    """Build the FT/ST terms of the two scale (tail index) candidates,
    for one sample or elementwise over arrays of moments, from the
    family's constants c (`eta_constants`).

    FT carries an absolute value so it stays real when the sample
    discriminant t2 - eta_r*t1^2 dips negative; the flag records that
    the fallback was engaged (`CandidatePair.discriminant_negative`).
    """
    disc = t2 - c.eta_r * t1 * t1
    ft = np.sqrt(np.abs(disc)) / math.sqrt(c.eta_12)
    st = t1 * (c.m1_11 - c.m1_22) / c.eta_12
    return CandidatePair(ft, st, disc)


def squares_overflow(y, n: int) -> bool:
    """Whether n squared deviations up to 2 max|y| overflow in a sum."""
    m = 2.0 * float(np.max(np.abs(y)))
    return not math.isfinite(n * m * m)


def solve_scale(t1, t2, constants, mle_scale: Callable[[], np.ndarray]):
    """Select the scale estimate per the sign-disambiguation algorithm,
    elementwise over arrays of moments (floats give 0-d results).

    mle_scale is a zero-argument callable so the reference MLE is only
    computed when the proximity rule actually needs it; it gives every
    sample's reference, NaN where the MLE failed.  Returns (scale, minus,
    pair): scale is NaN where no candidate is admissible (none positive,
    or two and no reference), and minus is True where minus was taken.
    An equal scheme (ST = 0) gets FT, NaN where FT = 0, without the MLE.
    """
    pair = candidate_scales(t1, t2, constants)
    minus, plus = pair.minus, pair.plus
    pos_minus, pos_plus = minus > 0.0, plus > 0.0
    take, both = pos_minus & ~pos_plus, pos_minus & pos_plus
    scale = np.where(take, minus, np.where(pos_plus, plus, np.nan))
    if np.any(both):
        ref = mle_scale()
        take = take | both & (np.abs(minus - ref) < np.abs(plus - ref))
        scale = np.where(both & np.isnan(ref), np.nan,
                         np.where(take, minus, scale))
    return scale, take, pair


def row_moments(ys, squares, schemes: Sequence[TrimmingScheme], out=None):
    """The trimmed moments of each row of ys, sorted samples of
    transformed data (R, n), given their squares ys * ys, for every
    scheme of schemes: the first step of a fit, before `solve_rows`.

    The columns are cut at every scheme's trimmed counts, and each
    segment between consecutive cuts is summed once, in ys and in the
    squares.  Each distinct window start opens one running sum, and
    every segment advances all the open sums with one add, so a window's
    sum is its segment sums added left to right, whatever the number of
    rows (numpy's sum over a column of 8 or more adds pairwise); a moment
    is that sum divided by the kept count.  A window that is a single
    segment is the plain mean of its column slice, and no moment reaches
    values beyond its scheme's trimmed order statistics.  As the segments
    come from the whole scheme set, a scheme's moments may differ in the
    last bits from its fit alone (`fit` passes one scheme); each row's
    stay independent of the other rows.

    Returns (t, constant): t (len(schemes), 2, R) holds each scheme's t1
    and t2 (written into out when given), and constant flags the rows
    whose first sorted value equals their last.
    """
    n = ys.shape[1]
    windows = [(trim_counts(n, s.a1, s.b1), trim_counts(n, s.a2, s.b2))
               for s in schemes]
    cuts = sorted({c for w in windows for lo, hi in w for c in (lo, n - hi)})
    starts = sorted({lo for w in windows for lo, _ in w})
    if out is None:
        out = np.empty((len(schemes), 2, len(ys)))
    closing = {}
    for t, window in zip(out, windows):
        for k, (lo, hi) in enumerate(window):
            closing.setdefault(n - hi, []).append(
                (t[k], starts.index(lo), k, n - lo - hi))
    seg = np.empty((2, len(ys)))
    runs = np.empty((len(starts), 2, len(ys)))
    opened = 0
    for a, b in zip(cuts, cuts[1:]):
        ys[:, a:b].sum(axis=1, out=seg[0])
        squares[:, a:b].sum(axis=1, out=seg[1])
        runs[:opened] += seg
        if opened < len(starts) and starts[opened] == a:
            runs[opened] = seg
            opened += 1
        for t, i, k, kept in closing.get(b, ()):
            np.divide(runs[i, k], kept, out=t)
    return out, ys[:, 0] == ys[:, -1]


def solve_rows(t, constant, family: Family,
               schemes: Sequence[TrimmingScheme],
               mle_scale: Callable[[], np.ndarray]):
    """The fits from `row_moments`' (t, constant), for every scheme of
    schemes, each by `solve_scale`'s one rule with the family's constants
    (`eta_constants`) over all the rows: the second step of a fit.

    Yields, one scheme at a time, (location, scale, minus, pair, t1, t2),
    arrays over the rows as `solve_scale` gives them, except that
    location and scale are NaN in every row that fails: where scale is
    not positive, and in a constant row.  A constant row has no scale,
    yet a nested scheme's plus root is positive on it, and an equal
    scheme's root is a rounding residue of its moments.
    """
    for scheme, (t1, t2) in zip(schemes, t):
        c = eta_constants(family, scheme)
        scale, minus, pair = solve_scale(t1, t2, c, mle_scale=mle_scale)
        scale = np.where(constant | ~(scale > 0.0), np.nan, scale)
        yield t1 - c.m1_11 * scale, scale, minus, pair, t1, t2


def fit(data, scheme: TrimmingScheme,
        family: Family = Family.NORMAL) -> FitResult:
    """Fit the family's parameters by the location-scale trimmed-moment
    estimator on transformed data (see `models.SPECS`), as the one-row,
    one-scheme case of `row_moments`, then `solve_rows`, and the only
    place that raises EstimationError for a failed row or builds its
    `Branch`; the reference MLE, computed only if needed, is the one-row
    case of `mle_rows`, as in `simulation.run_study`.

    Normal data are fitted as they are; lognormal data are
    log-transformed and (theta, sigma) reported on the log scale;
    Frechet data are log-transformed and the location log sigma and
    scale beta reported as (beta, sigma).
    """
    spec = SPECS[family]
    y = spec.transform(np.asarray(data, dtype=float))
    if y.size < 2:
        raise ValueError("need at least two observations")
    if squares_overflow(y, y.size):
        raise ValueError("data out of range: their squares overflow")
    # Below 2^-970 = 2^-485 squared (min normal / eps) the largest square,
    # and with it t2, loses bits to gradual underflow; all-zero data stay
    # an estimation failure.
    if 0.0 < float(np.max(np.abs(y))) < 2.0 ** -485:
        raise ValueError("data out of range: their squares underflow")
    ys = np.sort(y).reshape(1, -1)
    loc, scale, minus, pair, t1, t2 = next(solve_rows(
        *row_moments(ys, ys * ys, [scheme]), family, [scheme],
        lambda: spec.mle_rows(y.reshape(1, -1))[1]))
    if np.isnan(scale[0]):
        raise EstimationError("no admissible scale candidate: constant "
                              "data, or update trimming proportions")
    params = spec.params(float(loc[0]), float(scale[0]))
    branch = (Branch.EQUAL_TRIM if scheme.tag is SchemeTag.EQUAL
              else Branch.MINUS if minus[0] else Branch.PLUS)
    return FitResult(family, scheme, params, branch,
                     float(t1[0]), float(t2[0]), y.size,
                     bool(pair.discriminant_negative[0]))


# The location-scale families' name for `fit`.
fit_location_scale = fit


def fit_frechet(data, scheme: TrimmingScheme) -> FitResult:
    """Fit (beta, sigma) for the Frechet model via log-data moments."""
    return fit(data, scheme, Family.FRECHET)
