"""Asymptotic covariances, Jacobians, ARE and breakdown points.

The covariance of the sample trimmed-moment vector has entries
sigma2_ij = Gamma(i,j) * V(i,j) where V is a double integral of the
kernel K(w,v) = min(w,v) - wv against the derivatives of the population
moment functions H_i.  V reduces to a combination of single integrals
and endpoint evaluations, the closed form computed here (the raw double
integral is a brute-force oracle in the tests).  Every family is a
location-scale model (location mu, scale s) on transformed data, so
Sigma_T and the Jacobian are written once in (mu, s) and its base
quantile, and mapped to the family's reported parameters through
`models.SPECS`.  Delta-method covariances S_T = D Sigma_T D' follow
from the branch-aware Jacobians of the estimator maps, and the
asymptotic relative efficiency versus maximum likelihood is
(det S_MLE / det S_T)^(1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .estimators import Branch
from .models import SPECS, Family, ParameterVector
from .moments import (
    MomentConstants,
    TrimmingScheme,
    eta_constants,
    population_moments,
)
from .quadrature import integrate

__all__ = [
    "SingularityError",
    "AreResult",
    "lambda_entries",
    "psi_entries",
    "sigma_T",
    "sigma_T_location_scale",
    "sigma_T_frechet",
    "jacobian_location_scale",
    "jacobian_frechet",
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


@dataclass(frozen=True)
class AreResult:
    family: Family
    params: ParameterVector
    scheme: TrimmingScheme
    det_s_mle: float
    det_s_t: float
    are: float
    singular: bool = False


def _guarded(coef, H, u):
    """coef * H(u), skipping the evaluation when coef is exactly zero
    (H may diverge at u in {0, 1})."""
    if coef == 0.0:
        return 0.0
    return coef * float(H(u))


def _i_lower(H, a, b, s):
    """I(a, b) given the precomputed integral s of H over [a, b]."""
    if a == b:
        return 0.0
    return _guarded(b, H, b) - _guarded(a, H, a) - s


def _i_upper(H, a, b, s):
    """Ibar(a, b) given the precomputed integral s of H over [a, b]."""
    if a == b:
        return 0.0
    return _guarded(1.0 - b, H, b) - _guarded(1.0 - a, H, a) + s


def _v_pair(HA, winA, HB, winB):
    """The closed-form double integral of K against HA', HB' over
    winA x winB, with the index roles normalized so that the inner
    window (role j) starts no later and ends no later than the outer
    one (role i).  K's symmetry makes the swap harmless."""
    aA, bbarA = winA
    aB, bbarB = winB
    if aB <= aA and bbarB <= bbarA:
        Hi, (ai, bbari) = HA, winA
        Hj, (aj, bbarj) = HB, winB
    elif aA <= aB and bbarA <= bbarB:
        Hi, (ai, bbari) = HB, winB
        Hj, (aj, bbarj) = HA, winA
    else:
        raise ValueError(f"windows {winA} and {winB} are not nested")
    if not (ai <= bbarj):
        raise ValueError(f"windows {winA} and {winB} do not overlap")
    bi = 1.0 - bbari
    bj = 1.0 - bbarj

    if ai < bbarj:
        int_hi_mid = integrate(Hi, ai, bbarj)
        int_hj_mid = integrate(Hj, ai, bbarj)
        int_hihj_mid = integrate(lambda u: Hi(u) * Hj(u), ai, bbarj)
    else:
        int_hi_mid = int_hj_mid = int_hihj_mid = 0.0
    int_hi_right = integrate(Hi, bbarj, bbari) if bbarj < bbari else 0.0

    # The [aj, ai] strip is empty when aj == ai, in which case Ibar_i
    # (which diverges at ai == 0) must not be touched at all.
    if aj < ai:
        i_j_left = _i_lower(Hj, aj, ai, integrate(Hj, aj, ai))
        ibar_i_full = _i_upper(Hi, ai, bbari,
                               int_hi_mid + int_hi_right)
        total = i_j_left * ibar_i_full
    else:
        total = 0.0
    if bi != 0.0:
        i_j_mid = _i_lower(Hj, ai, bbarj, int_hj_mid)
        total += bi * float(Hi(bbari)) * i_j_mid
    if ai != 0.0:
        ibar_j_mid = _i_upper(Hj, ai, bbarj, int_hj_mid)
        total -= ai * float(Hi(ai)) * ibar_j_mid
    total += int_hihj_mid
    if int_hi_right != 0.0:
        total += (_guarded(bbarj, Hj, bbarj) - _guarded(ai, Hj, ai)) * int_hi_right
    total -= (_guarded(ai, Hj, ai) + _guarded(bj, Hj, bbarj)) * int_hi_mid
    total -= int_hj_mid * int_hi_mid
    total -= int_hj_mid * int_hi_right
    return total


@lru_cache(maxsize=None)
def _entries(base, scheme: TrimmingScheme) -> dict:
    """The six parameter-free covariance building blocks for one model,
    evaluated through the closed-form V routine and cached per scheme.

    base is the family's base quantile (Phi^{-1} or the Gumbel G) and
    half_sq its squared half, whose derivative weight is base itself.
    """
    half_sq = lambda u: 0.5 * base(u) ** 2
    w1 = scheme.window(1)
    w2 = scheme.window(2)
    g1 = 1.0 / (1.0 - scheme.a1 - scheme.b1)
    g2 = 1.0 / (1.0 - scheme.a2 - scheme.b2)
    return {
        "111": g1 * g1 * _v_pair(base, w1, base, w1),
        "121": g1 * g2 * _v_pair(base, w1, base, w2),
        "122": g1 * g2 * _v_pair(base, w1, half_sq, w2),
        "221": g2 * g2 * _v_pair(base, w2, base, w2),
        "222": g2 * g2 * _v_pair(base, w2, half_sq, w2),
        "223": g2 * g2 * _v_pair(half_sq, w2, half_sq, w2),
    }


def lambda_entries(scheme: TrimmingScheme) -> dict:
    """Location-scale covariance constants Lambda_ijk (parameter-free)."""
    return dict(_entries(SPECS[Family.NORMAL].base_quantile, scheme))


def psi_entries(scheme: TrimmingScheme) -> dict:
    """Frechet covariance constants Psi_ijk (parameter-free), on the
    paper's Delta = -G base: the entries pairing one base factor with
    one half-square (k = 2) change sign."""
    return {k: -v if k[2] == "2" else v
            for k, v in _entries(SPECS[Family.FRECHET].base_quantile,
                                 scheme).items()}


def sigma_T(family: Family, params: ParameterVector,
            scheme: TrimmingScheme) -> np.ndarray:
    """Asymptotic covariance of (T1_hat, T2_hat), the trimmed moments of
    the transformed data, in the location-scale form of the family."""
    params.validate(family)
    spec = SPECS[family]
    loc, scale = spec.location_scale(params)
    lam = _entries(spec.base_quantile, scheme)
    s11 = scale ** 2 * lam["111"]
    s12 = 2.0 * loc * scale ** 2 * lam["121"] + 2.0 * scale ** 3 * lam["122"]
    s22 = (4.0 * loc ** 2 * scale ** 2 * lam["221"]
           + 8.0 * loc * scale ** 3 * lam["222"]
           + 4.0 * scale ** 4 * lam["223"])
    return np.array([[s11, s12], [s12, s22]])


sigma_T_location_scale = partial(sigma_T, Family.NORMAL)
sigma_T_frechet = partial(sigma_T, Family.FRECHET)


def _check_discriminant(t1, t2, eta_r):
    disc = t2 - eta_r * t1 * t1
    if disc < _SINGULAR_TOL * max(1.0, t1 * t1):
        raise SingularityError(
            f"scale discriminant {disc:.4e} is vanishing or negative"
        )
    return disc


def jacobian_at_moments(family: Family, t1, t2, constants: MomentConstants,
                        branch: str = "plus", sigma=None) -> np.ndarray:
    """Jacobian of the estimator map (g1, g2) at moment values (t1, t2).

    Rows follow the family's reported parameters: (location, scale) for
    the location-scale families, (tail index, scale) for Frechet, whose
    sigma = exp(location) row is the location row times sigma.  branch
    selects the sign of the square-root candidate ("plus" or "minus").
    Pass the true (or fitted) sigma for the Frechet rows, otherwise it
    is reconstructed from the plus-branch estimate.
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    sign = 1.0 if branch == "plus" else -1.0
    c = constants.c_form()
    disc = _check_discriminant(t1, t2, c.eta_r)
    e = c.eta_12
    root = math.sqrt(e) * math.sqrt(disc)
    spec = SPECS[family]
    ds1 = sign * (-c.eta_r * t1 / root) + (c.m1_11 - c.m1_22) / e
    ds2 = sign / (2.0 * root)
    if sigma is None:
        plus = math.sqrt(disc) / math.sqrt(e) + t1 * (c.m1_11 - c.m1_22) / e
        sigma = spec.params(t1 - c.m1_11 * plus, plus).sigma
    # The factor goes first so that the Frechet row keeps the rounding
    # of its published form sigma * ds2 * kappa_1.
    f = spec.location_factor(sigma)
    location = (f * (1.0 - c.m1_11 * ds1), f * ds2 * -c.m1_11)
    scale = (ds1, ds2)
    return np.array((scale, location) if spec.scale_first
                    else (location, scale))


def jacobian_location_scale(params: ParameterVector, scheme: TrimmingScheme,
                            branch: str = "plus",
                            family: Family = Family.NORMAL) -> np.ndarray:
    """Population-level Jacobian for the given branch."""
    t1, t2 = population_moments(family, params, scheme)
    return jacobian_at_moments(family, t1, t2, eta_constants(family, scheme),
                               branch, params.sigma)


jacobian_frechet = partial(jacobian_location_scale, family=Family.FRECHET)


def delta_covariance(sigma_t: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Delta-method covariance S_T = D Sigma_T D'."""
    s = jac @ sigma_t @ jac.T
    return 0.5 * (s + s.T)


def s_mle(family: Family, params: ParameterVector) -> np.ndarray:
    """Asymptotic covariance of the MLE, the inverse Fisher information
    (`FamilySpec.s_mle`)."""
    params.validate(family)
    try:
        return SPECS[family].s_mle(params)
    except OverflowError:
        raise ValueError("parameters out of range: the MLE covariance "
                         "overflows") from None


def are(family: Family, params: ParameterVector,
        scheme: TrimmingScheme) -> AreResult:
    """Asymptotic relative efficiency of the trimmed estimator vs MLE.

    Uses the plus-branch Jacobian; by the determinant identity
    det(D-) = -det(D+) the branch choice cannot affect the result.
    """
    det_mle = float(np.linalg.det(s_mle(family, params)))
    try:
        jac = jacobian_location_scale(params, scheme, "plus", family)
    except SingularityError:
        return AreResult(family, params, scheme, det_mle, math.inf, 0.0, True)
    s_t = delta_covariance(sigma_T(family, params, scheme), jac)
    det_t = float(np.linalg.det(s_t))
    return AreResult(family, params, scheme, det_mle, det_t,
                     math.sqrt(max(det_mle, 0.0) / det_t), False)


def breakdown_points(scheme: TrimmingScheme):
    """(lower, upper) breakdown points of the trimmed estimator."""
    return (min(scheme.a1, scheme.a2), min(scheme.b1, scheme.b2))


def fit_covariance(fit) -> np.ndarray:
    """Delta-method covariance S_T at the fitted values, using the sign
    branch the estimator actually selected.  Stored on the fit and
    returned; divide by n for standard errors.  ValueError when it
    overflows, as it can for data on an extreme scale."""
    branch = "minus" if fit.branch is Branch.MINUS else "plus"
    jac = jacobian_at_moments(fit.family, fit.t1, fit.t2, fit.constants,
                              branch, fit.params.sigma)
    sigma_t = sigma_T(fit.family, fit.params, fit.scheme)
    try:
        with np.errstate(over="raise"):
            s_t = delta_covariance(sigma_t, jac)
    except FloatingPointError:
        raise ValueError("parameters out of range: the delta-method "
                         "covariance overflows") from None
    fit.cov = s_t
    return s_t
