"""Trimmed moments: sample versions, population constants and schemes.

The j-th sample trimmed moment discards the lowest floor(n*a_j) and
highest floor(n*b_j) order statistics and averages h_j over the kept
block; its population counterpart averages H_j = h_j o F^{-1} over the
window [a_j, 1-b_j].  Every family is a location-scale model on
transformed data (`families.LAWS`) with h_1(y) = y, h_2(y) = y^2, so
T1 = mu + s c_1 and T2 = mu^2 + 2 mu s c_1 + s^2 c_2 in the window
averages c_k of powers of the base quantile (Phi^{-1}, or the Gumbel
G = -log(-log u) for Frechet).  Every integral, here and in the
covariances of `asymptotics`, is of base^k (k = 1..4) over a window
between two of a scheme's breakpoints a_j, 1-b_j: the sum of the entries
of its segments in one table of (M1, M2, M3, M4) per (base, segment),
each window's sum formed once (`window_moments`).  An entry reads the
base at the segment's ends only: in closed form for Phi^{-1}, and for G
in the Gumbel variable x = G(u), over a smooth and bounded integrand, by
one Kronrod-15 panel between each pair of fixed knots (`_segment`,
`quadrature.integrate`; within 7.2e-14 of a 30-digit reference).
Every constant of a scheme comes from that table once, in one cached
record per (base, scheme), `scheme_record`: c, the entries Lambda of
`asymptotics.sigma_T` (`_v_pair`) and the coefficients of
`asymptotics.are`.  The base is the family law's quantile of one float
(`FamilyLaw.base`), and every entry of the table and the record is a
Python float: the module imports no numpy, and only
`sample_trimmed_moment`, on a data array, loads it when called.  A
`TrimmingScheme` is a `typing.NamedTuple`, equal to a plain tuple of
its values; that cache only ever receives schemes from
`validate_scheme`, so its keys cannot collide with another type.

The c form is the one convention the estimators read.  The paper
writes the Frechet constants with Delta(u) = log(-log u) = -G(u): its
kappa_k are the window averages of Delta^k, so kappa_1 = -c_1 and
kappa_2 = c_2.  `zeta_constants` is that signed view of
`eta_constants(Family.FRECHET, .)`, for reading against the paper.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .families import EULER_GAMMA, LAWS, Family, ParameterVector
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
    "scheme_record",
    "zeta_constants",
    "population_moments",
    "window_moments",
    "MAX_SIZE",
]

# Largest sample size, replicate count and repetition count, which size
# a study's arrays (`simulation.StudyConfig`), and most points a CLI
# 'start:stop:step' grid may have.
MAX_SIZE = 10 ** 6


class SchemeError(ValueError):
    """Invalid trimming proportions or window ordering."""


class SchemeTag(enum.Enum):
    EQUAL = "equal"
    CONDITION8 = "condition8"
    CONDITION12 = "condition12"

    __hash__ = object.__hash__  # identity, as for `models.Family`


class TrimmingScheme(NamedTuple):
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
    # Python floats: a record cached for numpy scalars would be shared
    # with equal float schemes and carry numpy's RuntimeWarnings to them.
    return TrimmingScheme(float(a1), float(b1), float(a2), float(b2), tag)


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
    The one function of the module on arrays, it imports numpy when
    called.
    """
    import numpy as np

    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("data must be nonempty")
    lo, hi = trim_counts(n, a, b)
    return float(np.mean(h(x[lo: n - hi])))


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi_terms(z: float) -> tuple:
    """phi(z) times (1, z, z^2 + 2, z^3 + 3z), all 0 at an infinite z."""
    if math.isinf(z):
        return (0.0, 0.0, 0.0, 0.0)
    phi = math.exp(-0.5 * z * z) / _SQRT_2PI
    zz = z * z
    return (phi, z * phi, (zz + 2.0) * phi, (zz + 3.0) * z * phi)


# The Gumbel law's complete moments E G^k, k = 1..4, the integrals of G^k
# over (0, 1), with Euler's gamma and zeta(3).
_GAMMA = EULER_GAMMA
_ZETA3 = 1.2020569031595942854
_PI2 = math.pi ** 2
_GUMBEL_COMPLETE = (
    _GAMMA,
    _GAMMA * _GAMMA + _PI2 / 6.0,
    _GAMMA ** 3 + _GAMMA * _PI2 / 2.0 + 2.0 * _ZETA3,
    _GAMMA ** 4 + _GAMMA * _GAMMA * _PI2 + 8.0 * _GAMMA * _ZETA3
    + 3.0 * _PI2 * _PI2 / 20.0)
# Where a Gumbel segment from u = 0 starts: below x = -4, |x|^4 g(x) <
# 3e-20.
_GUMBEL_START = -4.0


def _gumbel_density(x: float) -> float:
    """The Gumbel density g(x) = exp(-x - e^-x), with libm's rounding."""
    return math.exp(-x - math.exp(-x))


@lru_cache(maxsize=None)
def _segment(base, lo: float, hi: float) -> tuple:
    """(M1, M2, M3, M4), the integrals of base^k over the segment
    [lo, hi], with the base read at the two ends only.

    For Phi^{-1} they are closed forms: with z = Phi^{-1}(u), du =
    phi(z) dz, so the antiderivatives of z, z^2, z^3 and z^4 in u are
    -phi, u - z phi, -(z^2 + 2) phi and 3u - (z^3 + 3z) phi, whose phi
    terms vanish at u = 0 and 1 (z infinite).  For the Gumbel G, x =
    G(u) gives du = g(x) dx, so M_k is the integral of x^k g(x) over
    [G(lo), G(hi)], smooth and bounded, on the fixed Kronrod panels of
    `quadrature.integrate` (all four powers from one density call per
    node):
    from _GUMBEL_START where lo = 0, and as the complete moments less
    the segment [0, lo] where hi = 1 (G is infinite at both)."""
    if base is LAWS[Family.NORMAL].base:
        a, b = _phi_terms(base(lo)), _phi_terms(base(hi))
        width = hi - lo
        return (a[0] - b[0], width + a[1] - b[1], a[2] - b[2],
                3.0 * width + a[3] - b[3])
    if hi == 1.0:
        head = _segment(base, 0.0, lo) if lo > 0.0 else (0.0,) * 4
        return tuple(c - h for c, h in zip(_GUMBEL_COMPLETE, head))
    start = base(lo) if lo > 0.0 else _GUMBEL_START
    end = base(hi)
    if not start < end:
        return (0.0,) * 4
    return integrate(_gumbel_density, start, end)


def window_moments(base, *points):
    """M(lo, hi, k): the integral of base^k (k = 1..4) over a window
    [lo, hi] between two of the points (lo <= hi), the sum over the
    segments between the sorted points that the window covers, added
    left to right (0.0 if lo == hi).  Every window's sums are formed
    once, here."""
    pts = sorted(set(points))
    segments = [_segment(base, lo, hi) for lo, hi in zip(pts, pts[1:])]
    sums = {}
    for i, lo in enumerate(pts):
        total = sums[lo, lo] = (0.0,) * 4
        for hi, m in zip(pts[i + 1:], segments[i:]):
            total = sums[lo, hi] = tuple(map(add, total, m))

    def moment(lo: float, hi: float, k: int) -> float:
        return sums[lo, hi][k - 1]
    return moment


class MomentConstants(NamedTuple):
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


def _v_pair(moment, z, A, winA, B, winB):
    """The closed-form double integral V of K(w, v) = min(w, v) - wv
    against HA', HB' over the windows winA x winB of a scheme, for
    H = c * base^p given as (p, c): the integral of H (of a product) over a
    window is c (c_i c_j) times the `window_moments` entry of power p
    (p_i + p_j), and H(u) is c * z[u]^p.  The roles are normalized so
    that the inner window (j) starts and ends no later than the outer
    one (i); K's symmetry makes the swap harmless."""
    if winB[0] <= winA[0] and winB[1] <= winA[1]:
        (pi, ci), (ai, bbari), (pj, cj), (aj, bbarj) = A, winA, B, winB
    else:
        (pi, ci), (ai, bbari), (pj, cj), (aj, bbarj) = B, winB, A, winA
    bi = 1.0 - bbari
    bj = 1.0 - bbarj
    # H at the breakpoints the terms read.
    hi_a, hi_b = ci * z[ai] ** pi, ci * z[bbari] ** pi
    hj_aj, hj_a, hj_b = (cj * z[aj] ** pj, cj * z[ai] ** pj,
                         cj * z[bbarj] ** pj)
    int_hi_mid = ci * moment(ai, bbarj, pi)
    int_hj_mid = cj * moment(ai, bbarj, pj)
    int_hi_right = ci * moment(bbarj, bbari, pi)
    # The endpoint integrals I(a, b) = b H(b) - a H(a) - int_a^b H and
    # Ibar(a, b) = (1-b) H(b) - (1-a) H(a) + int_a^b H: first those of
    # the [aj, ai] strip and of window i, then of [ai, bbarj].
    total = ((ai * hj_a - aj * hj_aj - cj * moment(aj, ai, pj))
             * (bi * hi_b - (1.0 - ai) * hi_a
                + (int_hi_mid + int_hi_right)))
    total += bi * hi_b * (bbarj * hj_b - ai * hj_a - int_hj_mid)
    total -= ai * hi_a * (bj * hj_b - (1.0 - ai) * hj_a + int_hj_mid)
    total += ci * cj * moment(ai, bbarj, pi + pj)
    total += (bbarj * hj_b - ai * hj_a) * int_hi_right
    total -= (ai * hj_a + bj * hj_b) * int_hi_mid
    total -= int_hj_mid * int_hi_mid
    total -= int_hj_mid * int_hi_right
    return total


class SchemeRecord(NamedTuple):
    """Every constant of one base quantile and scheme: c, the six
    parameter-free entries Lambda of Sigma_T (keyed "111" ... "223"), and
    what an `asymptotics.are` point needs besides the point and c, the
    l^2, l and 1 coefficients of disc / scale^2 (q2, q1, q0) and of
    det(Sigma_T) / (4 scale^6) (d2, d1, d0)."""

    c: MomentConstants
    lam: dict
    q2: float
    q1: float
    q0: float
    d2: float
    d1: float
    d0: float


@lru_cache(maxsize=None)
def scheme_record(base, scheme: TrimmingScheme) -> SchemeRecord:
    """The cached `SchemeRecord` of a base quantile (Phi^{-1} or the
    Gumbel G) and a scheme, from one `window_moments` table and one base
    call at the scheme's breakpoints.  Lambda pairs the base, H = (power
    1, weight 1), with half its square, H = (power 2, weight 1/2)."""
    w1, w2 = scheme.window(1), scheme.window(2)
    (a1, bbar1), (a2, bbar2) = w1, w2
    moment = window_moments(base, *w1, *w2)
    m1_11 = moment(a1, bbar1, 1) / (bbar1 - a1)
    m1_22 = moment(a2, bbar2, 1) / (bbar2 - a2)
    m2_22 = moment(a2, bbar2, 2) / (bbar2 - a2)
    eta_12 = m1_11 * m1_11 - 2.0 * m1_11 * m1_22 + m2_22
    eta_r = (m2_22 - m1_22 * m1_22) / eta_12
    inner = [u for u in set(w1 + w2) if 0.0 < u < 1.0]
    # The base diverges at 0 and 1; every term of V that holds it there
    # has a zero factor (u, 1 - u or an empty window), so 0.0 stands in.
    z = {0.0: 0.0, 1.0: 0.0}
    z.update((u, base(u)) for u in inner)
    g1 = 1.0 / (1.0 - scheme.a1 - scheme.b1)
    g2 = 1.0 / (1.0 - scheme.a2 - scheme.b2)
    lin, half_sq = (1, 1.0), (2, 0.5)
    l111 = g1 * g1 * _v_pair(moment, z, lin, w1, lin, w1)
    l121 = g1 * g2 * _v_pair(moment, z, lin, w1, lin, w2)
    l122 = g1 * g2 * _v_pair(moment, z, lin, w1, half_sq, w2)
    l221 = g2 * g2 * _v_pair(moment, z, lin, w2, lin, w2)
    l222 = g2 * g2 * _v_pair(moment, z, lin, w2, half_sq, w2)
    l223 = g2 * g2 * _v_pair(moment, z, half_sq, w2, half_sq, w2)
    return SchemeRecord(
        MomentConstants(m1_11, m1_22, m2_22, eta_12, eta_r),
        {"111": l111, "121": l121, "122": l122,
         "221": l221, "222": l222, "223": l223},
        1.0 - eta_r, 2.0 * (m1_22 - eta_r * m1_11),
        m2_22 - eta_r * m1_11 * m1_11,
        l111 * l221 - l121 * l121, 2.0 * (l111 * l222 - l121 * l122),
        l111 * l223 - l122 * l122)


def eta_constants(family: Family, scheme: TrimmingScheme) -> MomentConstants:
    """Location-scale constants c and the eta quadratic forms (for
    Frechet, c of the Gumbel base), read from the cached `scheme_record`."""
    return scheme_record(LAWS[family].base, scheme).c


def zeta_constants(scheme: TrimmingScheme) -> MomentConstants:
    """Frechet constants kappa and the zeta quadratic forms: the signed
    view of the cached Gumbel constants, for reading against the paper
    (the estimators take the c form of `eta_constants`)."""
    c = eta_constants(Family.FRECHET, scheme)
    return c._replace(m1_11=-c.m1_11, m1_22=-c.m1_22)


def population_moments(family: Family, params: ParameterVector,
                       scheme: TrimmingScheme):
    """Population trimmed moments (T1, T2) of the transformed data: X
    itself for normal data, log X for lognormal and Frechet data."""
    params.validate(family)
    loc, scale = LAWS[family].location_scale(params)
    c = eta_constants(family, scheme)
    t1 = loc + scale * c.m1_11
    t2 = loc * loc + 2.0 * loc * scale * c.m1_22 + scale * scale * c.m2_22
    return t1, t2
