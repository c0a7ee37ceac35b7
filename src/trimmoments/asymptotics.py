"""Asymptotic covariances, Jacobians, ARE and breakdown points.

The covariance of the sample trimmed-moment vector has entries
sigma2_ij = Gamma(i,j) * V(i,j) where V is a double integral of the
kernel K(w,v) = min(w,v) - wv against the derivatives of the population
moment functions H_i.  Both are c * base^p (the base quantile and half
its square), so V reduces to base values at the scheme's breakpoints
and to integrals of base^k, k = 1..4, from the segment table the moment
constants share (`moments.window_moments`); the raw double integral is
a brute-force oracle in the tests.  Every family is a location-scale
model on transformed data, so Sigma_T and the Jacobian are written once
in (location, scale) and mapped to the reported parameters through
`models.SPECS`.  S_T = D Sigma_T D', on the branch-aware Jacobian, is
equivariant in the scale: `fit_covariance` forms S_T / scale^2 on the
ratio location / scale and multiplies by scale^2 once, and `are` takes
det S_T = det(D)^2 det(Sigma_T) in closed form in the same units, for
the ARE versus maximum likelihood, (det S_MLE / det S_T)^(1/2); each
det is rejected when it over- or underflows.  Both share one singular
rule, relative to the discriminant's terms.  What does not depend on the
point is one cached record per family and scheme (`_are_form`), and
S_MLE comes as rows of Python floats (`FamilySpec.s_mle`), so a warm
ARE point touches no numpy.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .estimators import Branch
from .models import SPECS, Family, ParameterVector
from .moments import (
    MomentConstants,
    TrimmingScheme,
    eta_constants,
    window_moments,
)

__all__ = [
    "SingularityError",
    "AreResult",
    "sigma_T",
    "jacobian_at_moments",
    "delta_covariance",
    "s_mle",
    "are",
    "breakdown_points",
    "fit_covariance",
]

# Discriminant threshold below which the scale formula is treated as
# singular instead of producing an exploding variance.
_SINGULAR_TOL = 1e-12


class SingularityError(Exception):
    """The scale discriminant T2 - r*T1^2 vanished (or went negative)."""


class AreResult(NamedTuple):
    are: float
    det_s_t: float
    singular: bool = False


def det2(m) -> float:
    """Determinant of a 2x2 matrix, an ndarray or two rows of Python
    floats, in Python floats (no numpy warning)."""
    (a, b), (c, d) = m.tolist() if isinstance(m, np.ndarray) else m
    return a * d - b * c


def _in_range(det: float, name: str) -> float:
    """det S_MLE or det S_T, which the ARE ratio needs to be a positive
    normal float; otherwise the parameters are out of range."""
    if not sys.float_info.min <= det < math.inf:
        raise ValueError(f"parameters out of range: det {name} is {det}")
    return det


def _v_pair(moment, z, A, winA, B, winB):
    """The closed-form double integral of K against HA', HB' over the
    windows winA x winB of a scheme, for H = c * base^p given as (p, c):
    the integral of H (of a product) over a window is c (c_i c_j) times
    the `window_moments` entry of power p (p_i + p_j), and H(u) is
    c * z[u]^p.  The roles are normalized so that the inner window (j)
    starts and ends no later than the outer one (i); K's symmetry makes
    the swap harmless."""
    if winB[0] <= winA[0] and winB[1] <= winA[1]:
        (pi, ci), (ai, bbari), (pj, cj), (aj, bbarj) = A, winA, B, winB
    else:
        (pi, ci), (ai, bbari), (pj, cj), (aj, bbarj) = B, winB, A, winA
    bi = 1.0 - bbari
    bj = 1.0 - bbarj
    hi = {u: ci * v ** pi for u, v in z.items()}
    hj = {u: cj * v ** pj for u, v in z.items()}
    int_hi_mid = ci * moment(ai, bbarj, pi)
    int_hj_mid = cj * moment(ai, bbarj, pj)
    int_hi_right = ci * moment(bbarj, bbari, pi)
    # The endpoint integrals I(a, b) = b H(b) - a H(a) - int_a^b H and
    # Ibar(a, b) = (1-b) H(b) - (1-a) H(a) + int_a^b H: first those of
    # the [aj, ai] strip and of window i, then of [ai, bbarj].
    total = ((ai * hj[ai] - aj * hj[aj] - cj * moment(aj, ai, pj))
             * (bi * hi[bbari] - (1.0 - ai) * hi[ai]
                + (int_hi_mid + int_hi_right)))
    total += bi * hi[bbari] * (bbarj * hj[bbarj] - ai * hj[ai] - int_hj_mid)
    total -= ai * hi[ai] * (bj * hj[bbarj] - (1.0 - ai) * hj[ai] + int_hj_mid)
    total += ci * cj * moment(ai, bbarj, pi + pj)
    total += (bbarj * hj[bbarj] - ai * hj[ai]) * int_hi_right
    total -= (ai * hj[ai] + bj * hj[bbarj]) * int_hi_mid
    total -= int_hj_mid * int_hi_mid
    total -= int_hj_mid * int_hi_right
    return total


@lru_cache(maxsize=None)
def _entries(base, scheme: TrimmingScheme) -> dict:
    """The six parameter-free covariance building blocks for one model,
    evaluated through the closed-form V routine and cached per scheme.

    base is the family's base quantile (Phi^{-1} or the Gumbel G), read
    once at the scheme's breakpoints, and half its square, whose
    derivative weight is base itself, is H = (power 2, weight 1/2).
    """
    w1 = scheme.window(1)
    w2 = scheme.window(2)
    moment = window_moments(base, *w1, *w2)
    inner = [u for u in set(w1 + w2) if 0.0 < u < 1.0]
    # The base diverges at 0 and 1; every term of V that holds it there
    # has a zero factor (u, 1 - u or an empty window), so 0.0 stands in.
    z = {0.0: 0.0, 1.0: 0.0}
    z.update(zip(inner, base(np.array(inner)).tolist()))
    g1 = 1.0 / (1.0 - scheme.a1 - scheme.b1)
    g2 = 1.0 / (1.0 - scheme.a2 - scheme.b2)
    lin, half_sq = (1, 1.0), (2, 0.5)
    return {
        "111": g1 * g1 * _v_pair(moment, z, lin, w1, lin, w1),
        "121": g1 * g2 * _v_pair(moment, z, lin, w1, lin, w2),
        "122": g1 * g2 * _v_pair(moment, z, lin, w1, half_sq, w2),
        "221": g2 * g2 * _v_pair(moment, z, lin, w2, lin, w2),
        "222": g2 * g2 * _v_pair(moment, z, lin, w2, half_sq, w2),
        "223": g2 * g2 * _v_pair(moment, z, half_sq, w2, half_sq, w2),
    }


def _sigma_entries(loc: float, scale: float, lam: dict):
    """(s11, s12, s22) of Sigma_T for the given location and scale;
    ValueError when a power of them overflows."""
    try:
        s11 = scale ** 2 * lam["111"]
        s12 = (2.0 * loc * scale ** 2 * lam["121"]
               + 2.0 * scale ** 3 * lam["122"])
        s22 = (4.0 * loc ** 2 * scale ** 2 * lam["221"]
               + 8.0 * loc * scale ** 3 * lam["222"]
               + 4.0 * scale ** 4 * lam["223"])
    except OverflowError:
        raise ValueError("parameters out of range: Sigma_T overflows") from None
    return s11, s12, s22


def sigma_T(family: Family, params: ParameterVector,
            scheme: TrimmingScheme) -> np.ndarray:
    """Asymptotic covariance of (T1_hat, T2_hat), the trimmed moments of
    the transformed data, in the location-scale form of the family;
    ValueError when a power of its parameters overflows."""
    params.validate(family)
    spec = SPECS[family]
    s11, s12, s22 = _sigma_entries(*spec.location_scale(params),
                                   _entries(spec.base_quantile, scheme))
    return np.array([[s11, s12], [s12, s22]])


def jacobian_at_moments(family: Family, t1, t2, c: MomentConstants,
                        branch=Branch.PLUS, sigma=None) -> np.ndarray:
    """Jacobian of the estimator map (g1, g2) at moment values (t1, t2),
    for the family's constants c (`eta_constants`).

    Rows follow the family's reported parameters: (location, scale) for
    the location-scale families, (tail index, scale) for Frechet, whose
    sigma = exp(location) row is the location row times sigma.  branch
    is a `Branch` or its value; EQUAL_TRIM takes the plus sign.  The
    Frechet rows need the true (or fitted) sigma; the location-scale
    rows do not read it."""
    sign = -1.0 if Branch(branch) is Branch.MINUS else 1.0
    disc = t2 - c.eta_r * t1 * t1
    if disc < _SINGULAR_TOL * (abs(t2) + abs(c.eta_r * t1 * t1)):
        raise SingularityError(
            f"scale discriminant {disc:.4e} is vanishing or negative")
    root = math.sqrt(c.eta_12) * math.sqrt(disc)
    spec = SPECS[family]
    ds1 = sign * (-c.eta_r * t1 / root) + (c.m1_11 - c.m1_22) / c.eta_12
    ds2 = sign / (2.0 * root)
    # The factor goes first so that the Frechet row keeps the rounding
    # of its published form sigma * ds2 * kappa_1.
    f = spec.location_factor(sigma)
    location = (f * (1.0 - c.m1_11 * ds1), f * ds2 * -c.m1_11)
    scale = (ds1, ds2)
    return np.array((scale, location) if spec.scale_first
                    else (location, scale))


def delta_covariance(sigma_t: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Delta-method covariance S_T = D Sigma_T D'."""
    s = jac @ sigma_t @ jac.T
    return 0.5 * (s + s.T)


def _s_mle_rows(family: Family, params: ParameterVector):
    """S_MLE as the rows of Python floats of `FamilySpec.s_mle`, and its
    determinant; ValueError when either is out of range."""
    params.validate(family)
    try:
        rows = SPECS[family].s_mle(params)
    except OverflowError:
        raise ValueError("parameters out of range: S_MLE overflows") from None
    return rows, _in_range(det2(rows), "S_MLE")


def s_mle(family: Family, params: ParameterVector) -> np.ndarray:
    """Asymptotic covariance of the MLE, the inverse Fisher information
    (`FamilySpec.s_mle`), as an array; ValueError when it or its
    determinant is out of range."""
    return np.array(_s_mle_rows(family, params)[0])


@lru_cache(maxsize=None)
def _are_form(family: Family, scheme: TrimmingScheme) -> tuple:
    """What an `are` point of the family and scheme needs besides the
    point, computed once: the l^2, l and 1 coefficients of disc / scale^2
    and of det(Sigma_T) / (4 scale^6), eta_12, eta_r and the Lambda
    entries, which the Sigma_T overflow check reads."""
    lam = _entries(SPECS[family].base_quantile, scheme)
    c = eta_constants(family, scheme)
    m11, eta_r = c.m1_11, c.eta_r
    l111, l121, l122 = lam["111"], lam["121"], lam["122"]
    l221, l222, l223 = lam["221"], lam["222"], lam["223"]
    return (1.0 - eta_r,
            2.0 * (c.m1_22 - eta_r * m11),
            c.m2_22 - eta_r * m11 * m11,
            l111 * l221 - l121 * l121,
            2.0 * (l111 * l222 - l121 * l122),
            l111 * l223 - l122 * l122,
            c.eta_12, eta_r, lam)


def are(family: Family, params: ParameterVector,
        scheme: TrimmingScheme) -> AreResult:
    """Asymptotic relative efficiency of the trimmed estimator vs MLE.

    det S_T = det(D)^2 det(Sigma_T), with l = location / scale:
    det(D+) = f / (2 sqrt(eta_12) sqrt(disc)) for the location factor f
    and the scale discriminant disc = t2 - eta_r t1^2 (det(D-) =
    -det(D+), so the branch cannot affect it), and det(Sigma_T) = 4
    scale^6 times a quadratic in l of the Lambda entries.  Both are
    taken in units of the scale, so neither cancels at a large |l|; for
    equal schemes their l terms vanish exactly and the ARE does not
    depend on l.  The discriminant is singular below _SINGULAR_TOL of
    the size of its terms.  Everything but the point comes from one
    cached record per family and scheme (`_are_form`), so a warm point
    is arithmetic on Python floats.
    """
    det_mle = _s_mle_rows(family, params)[1]
    spec = SPECS[family]
    loc, scale = spec.location_scale(params)
    q2, q1, q0, d2, d1, d0, eta_12, eta_r, lam = _are_form(family, scheme)
    # The largest entry of Sigma_T in data units, the variance of T2,
    # must be finite, though the ARE does not depend on the scale.
    if not math.isfinite(_sigma_entries(loc, scale, lam)[2]):
        raise ValueError("parameters out of range: Sigma_T overflows")
    ell = loc / scale
    # disc / scale^2 and det(Sigma_T) / (4 scale^6) are quadratics in l,
    # their l^2, l and 1 terms written with (u * u, v, w).  Each
    # coefficient multiplies l before l does, so a zero one stays zero
    # where l * l overflows: an equal scheme's eta_r is exactly 1 and
    # its l terms vanish.  There a nested scheme divides both quadratics
    # by l^2, which leaves their ratio.
    u, v, w = ell, ell, 1.0
    if eta_r != 1.0 and not math.isfinite(ell * ell):
        u, v, w = 1.0, 1.0 / ell, 1.0 / ell / ell
    quad = q2 * u * u
    lin = q1 * v
    const = q0 * w
    disc = quad + lin + const
    if disc < _SINGULAR_TOL * (abs(quad) + abs(lin) + abs(const)):
        return AreResult(0.0, math.inf, True)
    det_sigma = d2 * u * u + d1 * v + d0 * w
    g = spec.location_factor(params.sigma) * scale * scale
    det_t = _in_range(g * g * det_sigma / (eta_12 * disc), "S_T")
    return AreResult(math.sqrt(det_mle / det_t), det_t)


def breakdown_points(scheme: TrimmingScheme):
    """(lower, upper) breakdown points of the trimmed estimator."""
    return (min(scheme.a1, scheme.a2), min(scheme.b1, scheme.b2))


def fit_covariance(fit) -> np.ndarray:
    """Delta-method covariance S_T at the fitted values, on the `Branch`
    the fit took; divide by n for standard errors.  D and Sigma_T are
    taken in units of the fitted scale s, like `are`'s, and S_T / s^2 is
    multiplied by s^2 once.  ValueError when that overflows."""
    spec = SPECS[fit.family]
    loc, s = spec.location_scale(fit.params)
    jac = jacobian_at_moments(fit.family, fit.t1 / s, fit.t2 / s / s,
                              eta_constants(fit.family, fit.scheme),
                              fit.branch, fit.params.sigma)
    s11, s12, s22 = _sigma_entries(loc / s, 1.0,
                                   _entries(spec.base_quantile, fit.scheme))
    try:
        with np.errstate(over="raise"):
            return delta_covariance(np.array([[s11, s12], [s12, s22]]),
                                    jac) * s * s
    except FloatingPointError:
        raise ValueError("parameters out of range: the delta-method "
                         "covariance overflows") from None
