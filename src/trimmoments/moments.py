"""Trimmed moments: sample versions, population constants and schemes.

The j-th sample trimmed moment discards the lowest floor(n*a_j) and
highest floor(n*b_j) order statistics of the data and averages h_j over
the kept block.  Its population counterpart is the integral of
H_j = h_j o F^{-1} over the probability window [a_j, 1-b_j], normalized
by the window length.

Every family is fitted as a location-scale model on transformed data
(see `models.SPECS`), with h_1(y) = y and h_2(y) = y^2, so the population
moments are T1 = mu + s c_1 and T2 = mu^2 + 2 mu s c_1 + s^2 c_2 in the
window averages c_k of powers of the base quantile: Phi^{-1} for the
normal and lognormal models, the Gumbel G(u) = -log(-log u) for Frechet
(mu = log sigma, s = beta).  The paper's Frechet constants kappa_k
average powers of Delta = log(-log u) = -G instead, so kappa_1 = -c_1
and kappa_2 = c_2; `zeta_constants` returns them in that kappa form and
`MomentConstants.c_form` is the one place they are turned back.
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
    "c_k",
    "kappa_k",
    "eta_constants",
    "zeta_constants",
    "population_moments",
]


class SchemeError(ValueError):
    """Invalid trimming proportions or window ordering."""


class SchemeTag(enum.Enum):
    EQUAL = "equal"
    CONDITION8 = "condition8"
    CONDITION12 = "condition12"


@dataclass(frozen=True)
class TrimmingScheme:
    """Two per-moment trimming windows with a validated nesting order."""

    a1: float
    b1: float
    a2: float
    b2: float
    tag: SchemeTag

    @property
    def bbar1(self) -> float:
        return 1.0 - self.b1

    @property
    def bbar2(self) -> float:
        return 1.0 - self.b2

    def window(self, j: int):
        """(a_j, 1-b_j) for moment j in {1, 2}."""
        if j == 1:
            return (self.a1, self.bbar1)
        if j == 2:
            return (self.a2, self.bbar2)
        raise ValueError(f"moment index must be 1 or 2, got {j}")

    def proportions(self):
        return (self.a1, self.b1, self.a2, self.b2)

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
            "trimming windows are not nested: need a2 <= a1 and b2 <= b1 "
            f"or a1 <= a2 and b1 <= b2, got ({a1},{b1}) and ({a2},{b2})"
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
def _c_cached(base, a: float, bbar: float, k: int) -> float:
    return integrate(lambda u: base(u) ** k, a, bbar) / (bbar - a)


def _check_window(a, bbar, k):
    if not (0.0 <= a < bbar <= 1.0):
        raise SchemeError(f"window must satisfy 0 <= a < bbar <= 1, got ({a}, {bbar})")
    if k not in (1, 2, 3, 4):
        raise ValueError(f"k must be in 1..4, got {k}")


def c_k(family: Family, a: float, bbar: float, k: int) -> float:
    """Window-averaged k-th power of the standard normal quantile."""
    if family is Family.FRECHET:
        raise ValueError("c_k is defined for the location-scale families; use kappa_k")
    return _window_mean(SPECS[family].base_quantile, a, bbar, k)


def kappa_k(a: float, bbar: float, k: int) -> float:
    """Window-averaged k-th power of Delta(u) = log(-log u) = -G(u)."""
    base = SPECS[Family.FRECHET].base_quantile
    return (-1) ** k * _window_mean(base, a, bbar, k)


def _window_mean(base, a: float, bbar: float, k: int) -> float:
    """Window-averaged k-th power of a base quantile function."""
    _check_window(a, bbar, k)
    return _c_cached(base, a, bbar, k)


@dataclass(frozen=True)
class MomentConstants:
    """Scheme-level constants used to invert the moment equations.

    m1_11 is the first-order constant on window 1, m1_22 and m2_22 the
    first and second-order constants on window 2; eta_12 and eta_22 are
    the quadratic forms eta(a1, bbar2) and eta(a2, bbar2) (zeta for the
    Frechet family) and eta_r their ratio.  The eta forms are even in
    the first-order constants, so they agree between the two kinds.
    """

    kind: str  # "c" (base-quantile powers) or "kappa" (Delta powers)
    m1_11: float
    m1_22: float
    m2_22: float
    eta_12: float
    eta_22: float
    eta_r: float

    def c_form(self) -> "MomentConstants":
        """These constants with c_1 = -kappa_1 (c_2 = kappa_2) for the
        Frechet kappa kind; every estimator formula uses this form."""
        if self.kind == "kappa":
            return replace(self, kind="c", m1_11=-self.m1_11,
                           m1_22=-self.m1_22)
        return self


def _constants(scheme: TrimmingScheme, const, kind) -> MomentConstants:
    a1, bbar1 = scheme.window(1)
    a2, bbar2 = scheme.window(2)
    m1_11 = const(a1, bbar1, 1)
    m1_22 = const(a2, bbar2, 1)
    m2_22 = const(a2, bbar2, 2)
    eta_12 = m1_11 * m1_11 - 2.0 * m1_11 * m1_22 + m2_22
    eta_22 = m2_22 - m1_22 * m1_22
    return MomentConstants(kind, m1_11, m1_22, m2_22, eta_12, eta_22,
                           eta_22 / eta_12)


@lru_cache(maxsize=None)
def eta_constants(family: Family, scheme: TrimmingScheme) -> MomentConstants:
    """Location-scale constants c and the eta quadratic forms (for
    Frechet, c of the Gumbel base: equal to zeta_constants' c_form),
    cached per scheme."""
    base = SPECS[family].base_quantile
    return _constants(scheme, lambda a, b, k: _window_mean(base, a, b, k), "c")


def zeta_constants(scheme: TrimmingScheme) -> MomentConstants:
    """Frechet constants kappa and the zeta quadratic forms."""
    return _constants(scheme, kappa_k, "kappa")


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
