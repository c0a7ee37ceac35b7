"""Trimmed moments: sample versions, population constants and schemes.

The j-th sample trimmed moment discards the lowest floor(n*a_j) and
highest floor(n*b_j) order statistics and averages h_j over the kept
block; its population counterpart averages H_j = h_j o F^{-1} over the
window [a_j, 1-b_j].  Every family is a location-scale model on
transformed data (`models.SPECS`) with h_1(y) = y, h_2(y) = y^2, so
T1 = mu + s c_1 and T2 = mu^2 + 2 mu s c_1 + s^2 c_2 in the window
averages c_k of powers of the base quantile (Phi^{-1}, or the Gumbel
G = -log(-log u) for Frechet).  Every integral, here and in the
covariances of `asymptotics`, is of base^k (k = 1..4) over a window
between two of a scheme's breakpoints a_j, 1-b_j: the sum of the entries
of its segments in one table of (M1, M2, M3, M4) per (base, segment),
each from one quadrature pass (`window_moments`).

The c form is the one convention the estimators read.  The paper
writes the Frechet constants with Delta(u) = log(-log u) = -G(u): its
kappa_k are the window averages of Delta^k, so kappa_1 = -c_1 and
kappa_2 = c_2.  `zeta_constants` is that signed view of
`eta_constants(Family.FRECHET, .)`, for reading against the paper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .models import SPECS, Family, ParameterVector
from .quadrature import integrate

__all__ = [
    "SchemeError",
    "SchemeTag",
    "TrimmingScheme",
    "MomentConstants",
    "validate_scheme",
    "trim_counts",
    "sample_trimmed_moment",
    "eta_constants",
    "zeta_constants",
    "population_moments",
    "window_moments",
]


class SchemeError(ValueError):
    """Invalid trimming proportions or window ordering."""


class SchemeTag(enum.Enum):
    EQUAL = "equal"
    CONDITION8 = "condition8"
    CONDITION12 = "condition12"

    __hash__ = object.__hash__  # identity, as for `models.Family`


@dataclass(frozen=True)
class TrimmingScheme:
    """Two per-moment trimming windows with a validated nesting order."""

    a1: float
    b1: float
    a2: float
    b2: float
    tag: SchemeTag

    def window(self, j: int):
        """(a_j, 1-b_j) for moment j in {1, 2}."""
        if j == 1:
            return (self.a1, 1.0 - self.b1)
        if j == 2:
            return (self.a2, 1.0 - self.b2)
        raise ValueError(f"moment index must be 1 or 2, got {j}")

    def label(self) -> str:
        return (f"({self.a1:g},{self.b1:g})/({self.a2:g},{self.b2:g})")


def validate_scheme(a1, b1, a2, b2) -> TrimmingScheme:
    """Validate two trimming pairs and classify their window ordering.

    Accepted orderings are the two nested configurations,
    a2 <= a1 < 1-b2 <= 1-b1 or a1 <= a2 < 1-b1 <= 1-b2; a scheme
    satisfying both (equal proportions) is tagged Equal.  The four
    remaining orderings of overlapping but non-nested windows are
    rejected.
    """
    for name, v in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)):
        if not (0.0 <= v < 1.0):
            raise SchemeError(f"{name} must lie in [0, 1), got {v}")
    if a1 + b1 >= 1.0:
        raise SchemeError(f"a1 + b1 must be < 1, got {a1 + b1}")
    if a2 + b2 >= 1.0:
        raise SchemeError(f"a2 + b2 must be < 1, got {a2 + b2}")
    bbar1 = 1.0 - b1
    bbar2 = 1.0 - b2
    # The boundary case a_i == bbar_j (windows touching rather than
    # overlapping) is admitted: every quantity below is continuous in
    # the window endpoints there.
    cond8 = a2 <= a1 <= bbar2 <= bbar1
    cond12 = a1 <= a2 <= bbar1 <= bbar2
    if cond8 and cond12:
        tag = SchemeTag.EQUAL
    elif cond8:
        tag = SchemeTag.CONDITION8
    elif cond12:
        tag = SchemeTag.CONDITION12
    else:
        raise SchemeError(
            "trimming windows are not nested: need a2 <= a1 and b1 <= b2, "
            f"or a1 <= a2 and b2 <= b1, got ({a1},{b1}) and ({a2},{b2})"
        )
    return TrimmingScheme(a1, b1, a2, b2, tag)


def trim_counts(n: int, a: float, b: float):
    """(lo, hi): how many of n order statistics the (a, b) trim discards
    at the bottom and at the top, floor(n*a) and floor(n*b)."""
    # Counts are read through the rounding of n*a: an integral n*a may
    # land an ulp below (0.29 * 100 = 28.999999999999996) and trims 29.
    lo = math.floor(n * a * (1.0 + 1e-12))
    hi = math.floor(n * b * (1.0 + 1e-12))
    if n - lo - hi < 1:
        raise SchemeError(
            f"trimming ({a}, {b}) keeps no observations out of n={n}"
        )
    return lo, hi


def sample_trimmed_moment(data, a, b, h):
    """Mean of h over the order statistics kept by the (a, b) trim.

    The data are sorted, the lowest floor(n*a) and highest floor(n*b)
    observations are discarded, and h is averaged over the kept block.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("data must be nonempty")
    lo, hi = trim_counts(n, a, b)
    return float(np.mean(h(x[lo: n - hi])))


@lru_cache(maxsize=None)
def _segment(base, lo: float, hi: float) -> tuple:
    """(M1, M2, M3, M4), the integrals of base^k over the segment
    [lo, hi], from one quadrature pass with one base call per node."""
    def powers(u):
        z = base(u)
        z2 = z * z
        return z, z2, z2 * z, z2 * z2
    return tuple(integrate(powers, lo, hi).tolist())


def window_moments(base, *points):
    """M(lo, hi, k): the integral of base^k (k = 1..4) over a window
    [lo, hi] between two of the points, the sum over the segments
    between the sorted points that the window covers (0.0 if lo == hi)."""
    pts = sorted(set(points))
    table = {lo: _segment(base, lo, hi) for lo, hi in zip(pts, pts[1:])}

    def moment(lo: float, hi: float, k: int) -> float:
        return sum((m[k - 1] for s, m in table.items() if lo <= s < hi), 0.0)
    return moment


@dataclass(frozen=True)
class MomentConstants:
    """Scheme-level constants, in the c form, used to invert the moment
    equations.

    m1_11 is the first-order constant on window 1, m1_22 and m2_22 the
    first and second-order constants on window 2; eta_12 is the
    quadratic form eta(a1, bbar2) (zeta for the Frechet family) and
    eta_r the ratio eta(a2, bbar2) / eta_12.  The eta forms are even in
    the first-order constants, so the kappa view of `zeta_constants`
    shares them.
    """

    m1_11: float
    m1_22: float
    m2_22: float
    eta_12: float
    eta_r: float


@lru_cache(maxsize=None)
def eta_constants(family: Family, scheme: TrimmingScheme) -> MomentConstants:
    """Location-scale constants c and the eta quadratic forms (for
    Frechet, c of the Gumbel base), cached per scheme."""
    (a1, bbar1), (a2, bbar2) = scheme.window(1), scheme.window(2)
    moment = window_moments(SPECS[family].base_quantile, a1, bbar1, a2, bbar2)
    m1_11 = moment(a1, bbar1, 1) / (bbar1 - a1)
    m1_22 = moment(a2, bbar2, 1) / (bbar2 - a2)
    m2_22 = moment(a2, bbar2, 2) / (bbar2 - a2)
    eta_12 = m1_11 * m1_11 - 2.0 * m1_11 * m1_22 + m2_22
    return MomentConstants(m1_11, m1_22, m2_22, eta_12,
                           (m2_22 - m1_22 * m1_22) / eta_12)


def zeta_constants(scheme: TrimmingScheme) -> MomentConstants:
    """Frechet constants kappa and the zeta quadratic forms: the signed
    view of the cached Gumbel constants, for reading against the paper
    (the estimators take the c form of `eta_constants`)."""
    c = eta_constants(Family.FRECHET, scheme)
    return replace(c, m1_11=-c.m1_11, m1_22=-c.m1_22)


def population_moments(family: Family, params: ParameterVector,
                       scheme: TrimmingScheme):
    """Population trimmed moments (T1, T2) of the transformed data: X
    itself for normal data, log X for lognormal and Frechet data."""
    params.validate(family)
    loc, scale = SPECS[family].location_scale(params)
    c = eta_constants(family, scheme)
    t1 = loc + scale * c.m1_11
    t2 = loc * loc + 2.0 * loc * scale * c.m1_22 + scale * scale * c.m2_22
    return t1, t2
