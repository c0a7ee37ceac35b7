"""Trimmed-moment estimators with sign disambiguation.

Every family is fitted by one location-scale estimator on transformed
data (`models.SPECS`): the Frechet tail index is the scale of log-data.
The formulas read the family's c-form constants (`moments.eta_constants`).
The scale solves a quadratic in the trimmed moments, so two candidates
exist: minus = -FT + ST and plus = FT + ST, where FT is
the square-root term and ST the linear term.  Equal per-moment trimming
forces ST = 0 and the plus candidate is taken directly; otherwise the
sign is resolved by positivity and, when both candidates are positive,
by proximity to the full-sample MLE, one row of `FamilySpec.mle_rows`.
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
    "Branch",
    "CandidatePair",
    "EstimationError",
    "FitResult",
    "mle_normal",
    "mle_frechet",
    "candidate_scales",
    "solve_scale",
    "fit_rows",
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


def _branch(tag: SchemeTag, minus) -> Branch:
    if tag is SchemeTag.EQUAL:
        return Branch.EQUAL_TRIM
    return Branch.MINUS if minus else Branch.PLUS


def solve_scale(t1, t2, constants, tag: SchemeTag,
                mle_scale: Callable[[], float]):
    """Select the scale estimate per the sign-disambiguation algorithm,
    for one sample or elementwise over arrays of moments.

    mle_scale is a zero-argument callable so the reference MLE is only
    computed when the proximity rule actually needs it; for arrays it
    gives every sample's reference, NaN where the MLE failed.  Returns
    (scale, branch, pair).  For arrays, scale is NaN where no candidate
    is admissible (none positive, or two and no reference) and branch is
    True where minus was taken; one sample gets a Branch, and an
    EstimationError instead of NaN.
    """
    pair = candidate_scales(t1, t2, constants)
    minus, plus = pair.minus, pair.plus
    take = np.zeros(np.shape(minus), dtype=bool)
    if tag is SchemeTag.EQUAL:
        scale = pair.ft
    else:
        take = (minus > 0.0) & ~(plus > 0.0)
        scale = np.where(take, minus, np.where(plus > 0.0, plus, np.nan))
        both = (minus > 0.0) & (plus > 0.0)
        if np.any(both):
            ref = mle_scale()
            take = take | both & (np.abs(minus - ref) < np.abs(plus - ref))
            scale = np.where(both & np.isnan(ref), np.nan,
                             np.where(take, minus, scale))
    if np.ndim(t1) > 0:
        return scale, take, pair
    if np.isnan(scale):
        raise EstimationError(
            "no admissible scale candidate; update trimming proportions")
    return float(scale), _branch(tag, take), pair


def fit_rows(ys, squares, schemes: Sequence[TrimmingScheme],
             constants: Sequence[MomentConstants],
             mle_scale: Callable[[], np.ndarray]):
    """The trimmed-moment fits of each row of ys, sorted samples of
    transformed data (R, n), given their squares ys * ys, for every
    scheme of schemes with its constants (`eta_constants`).

    The columns are cut at every scheme's trimmed counts, and each
    segment between consecutive cuts is summed once, in ys and in the
    squares; a moment is its window's segment sums added left to right
    and divided by the kept count.  A window that is a single segment is
    the plain mean of its column slice, and no moment reaches values
    beyond its scheme's trimmed order statistics.  As the segments come
    from the whole scheme set, a scheme's moments may differ in the last
    bits from its fit alone (`fit` passes one scheme); each row's stay
    independent of the other rows.

    Yields, one scheme at a time, (location, scale, branch, pair, t1,
    t2), arrays over the rows as `solve_scale` gives them; a row fails
    where scale is not positive.  A constant row (its first sorted value
    equal to its last) fails on every scheme: it has no scale, yet a
    nested scheme's plus root is positive on it, and an equal scheme's
    root is a rounding residue of its moments.
    """
    n = ys.shape[1]
    windows = [(trim_counts(n, s.a1, s.b1), trim_counts(n, s.a2, s.b2))
               for s in schemes]
    cuts = sorted({c for w in windows for lo, hi in w for c in (lo, n - hi)})
    at = {c: i for i, c in enumerate(cuts)}
    segments = [(ys[:, a:b].sum(axis=1), squares[:, a:b].sum(axis=1))
                for a, b in zip(cuts, cuts[1:])]

    def moment(lo, hi, k):
        sums = [seg[k] for seg in segments[at[lo]:at[n - hi]]]
        return sum(sums[1:], sums[0]) / (n - lo - hi)

    constant = ys[:, 0] == ys[:, -1]
    for scheme, c, ((lo1, hi1), (lo2, hi2)) in zip(schemes, constants,
                                                   windows):
        t1, t2 = moment(lo1, hi1, 0), moment(lo2, hi2, 1)
        scale, branch, pair = solve_scale(t1, t2, c, scheme.tag, mle_scale)
        scale = np.where(constant, np.nan, scale)
        yield t1 - c.m1_11 * scale, scale, branch, pair, t1, t2


def fit(data, scheme: TrimmingScheme,
        family: Family = Family.NORMAL) -> FitResult:
    """Fit the family's parameters by the location-scale trimmed-moment
    estimator on transformed data (see `models.SPECS`), as the one-row,
    one-scheme case of `fit_rows`; the reference MLE, computed only if
    needed, is the one-row case of `mle_rows`, as in
    `simulation.run_study`.

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
    loc, scale, minus, pair, t1, t2 = next(fit_rows(
        ys, ys * ys, [scheme], [eta_constants(family, scheme)],
        lambda: spec.mle_rows(y.reshape(1, -1))[1]))
    if not scale[0] > 0.0:
        raise EstimationError("no admissible scale candidate: constant "
                              "data, or update trimming proportions")
    params = spec.params(float(loc[0]), float(scale[0]))
    return FitResult(family, scheme, params, _branch(scheme.tag, minus[0]),
                     float(t1[0]), float(t2[0]), y.size,
                     bool(pair.discriminant_negative[0]))


# The location-scale families' name for `fit`.
fit_location_scale = fit


def fit_frechet(data, scheme: TrimmingScheme) -> FitResult:
    """Fit (beta, sigma) for the Frechet model via log-data moments."""
    return fit(data, scheme, Family.FRECHET)
