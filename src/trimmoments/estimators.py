"""Trimmed-moment estimators with sign disambiguation.

Every family is fitted by one location-scale estimator on transformed
data (`models.SPECS`): the Frechet tail index is the scale of log-data.
The scale solves a quadratic in the trimmed moments, so two candidates
exist: minus = -FT + ST and plus = FT + ST, where FT is
the square-root term and ST the linear term.  Equal per-moment trimming
forces ST = 0 and the plus candidate is taken directly; otherwise the
sign is resolved by positivity and, when both candidates are positive,
by proximity to the full-sample MLE.  The reference maximum likelihood
estimators live with the families in `models` and are re-exported here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import (  # noqa: F401  (mle_* and _xi are re-exported)
    SPECS,
    EstimationError,
    Family,
    ParameterVector,
    _xi,
    mle_frechet,
    mle_normal,
)
from .moments import (
    MomentConstants,
    SchemeTag,
    TrimmingScheme,
    eta_constants,
    sample_trimmed_moment,
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
    "fit",
    "fit_location_scale",
    "fit_frechet",
]


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    EQUAL_TRIM = "equal-trim"


@dataclass(frozen=True)
class CandidatePair:
    """Square-root and linear terms of the two scale candidates."""

    ft: float
    st: float
    discriminant: float
    discriminant_negative: bool

    @property
    def minus(self) -> float:
        return -self.ft + self.st

    @property
    def plus(self) -> float:
        return self.ft + self.st


@dataclass
class FitResult:
    family: Family
    scheme: TrimmingScheme
    params: ParameterVector
    branch: Branch
    t1: float
    t2: float
    n: int
    constants: MomentConstants
    mle: Optional[ParameterVector] = None
    discriminant_negative: bool = False
    cov: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def estimates(self) -> tuple:
        return SPECS[self.family].estimates(self.params)


def candidate_scales(t1, t2, constants: MomentConstants) -> CandidatePair:
    """Build the FT/ST terms of the two scale (tail index) candidates.

    FT carries an absolute value so it stays real when the sample
    discriminant t2 - eta_r*t1^2 dips negative; the flag records that
    the fallback was engaged.
    """
    c = constants.c_form()
    disc = t2 - c.eta_r * t1 * t1
    ft = math.sqrt(abs(disc)) / math.sqrt(c.eta_12)
    st = t1 * (c.m1_11 - c.m1_22) / c.eta_12
    return CandidatePair(ft, st, disc, disc < 0.0)


def solve_scale(t1, t2, constants, tag: SchemeTag,
                mle_scale: Callable[[], float]):
    """Select the scale estimate per the sign-disambiguation algorithm.

    mle_scale is a zero-argument callable so the reference MLE is only
    computed when the proximity rule actually needs it.

    Returns (scale, branch, pair).
    """
    pair = candidate_scales(t1, t2, constants)
    if tag is SchemeTag.EQUAL:
        return pair.ft, Branch.EQUAL_TRIM, pair
    minus, plus = pair.minus, pair.plus
    if max(minus, plus) <= 0.0:
        raise EstimationError(
            "both scale candidates are nonpositive; update trimming proportions"
        )
    if minus <= 0.0 < plus:
        return plus, Branch.PLUS, pair
    if plus <= 0.0 < minus:
        return minus, Branch.MINUS, pair
    ref = mle_scale()
    if abs(minus - ref) < abs(plus - ref):
        return minus, Branch.MINUS, pair
    return plus, Branch.PLUS, pair


def fit(data, scheme: TrimmingScheme, family: Family = Family.NORMAL,
        constants: Optional[MomentConstants] = None,
        mle: Optional[ParameterVector] = None) -> FitResult:
    """Fit the family's parameters by the location-scale trimmed-moment
    estimator on transformed data (see `models.SPECS`).

    Normal data are fitted as they are; lognormal data are
    log-transformed and (theta, sigma) reported on the log scale;
    Frechet data are log-transformed and the location log sigma and
    scale beta reported as (beta, sigma).  `constants` and `mle` (the
    family's reference MLE of `data`) may be supplied to avoid
    recomputation in tight loops.
    """
    spec = SPECS[family]
    x = np.asarray(data, dtype=float)
    y = spec.transform(x)
    if y.size < 2:
        raise ValueError("need at least two observations")
    if constants is None:
        constants = eta_constants(family, scheme)
    c = constants.c_form()
    t1 = sample_trimmed_moment(y, scheme.a1, scheme.b1, lambda v: v)
    t2 = sample_trimmed_moment(y, scheme.a2, scheme.b2, lambda v: v * v)
    state = {"mle": mle}

    def ref_scale():
        if state["mle"] is None:
            state["mle"] = spec.mle(x)
        return spec.location_scale(state["mle"])[1]

    scale, branch, pair = solve_scale(t1, t2, c, scheme.tag, ref_scale)
    if scale <= 0.0:
        raise EstimationError(
            "selected scale candidate is nonpositive; update trimming proportions"
        )
    params = spec.params(t1 - c.m1_11 * scale, scale)
    return FitResult(family, scheme, params, branch, t1, t2, y.size,
                     c, state["mle"], pair.discriminant_negative)


# The location-scale families' name for `fit`.
fit_location_scale = fit


def fit_frechet(data, scheme: TrimmingScheme,
                constants: Optional[MomentConstants] = None,
                mle: Optional[ParameterVector] = None) -> FitResult:
    """Fit (beta, sigma) for the Frechet model via log-data moments."""
    return fit(data, scheme, Family.FRECHET, constants, mle)
