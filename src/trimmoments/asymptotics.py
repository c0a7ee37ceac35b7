"""Asymptotic covariances, Jacobians, ARE and breakdown points.

The covariance of the sample trimmed-moment vector has entries
sigma2_ij = Gamma(i,j) * V(i,j) where V is a double integral of the
kernel K(w,v) = min(w,v) - wv against the derivatives of the population
moment functions H_i.  Its parameter-free entries Lambda, like the
moment constants c, are constants of the base quantile and the scheme
alone, and come from one cached record per (base, scheme)
(`moments.scheme_record`); this module reads that record and nothing
else, and the raw double integral is a brute-force oracle in the tests.
Every family is a location-scale model on transformed data, so Sigma_T
and the Jacobian, whose rows are (d location, d scale), are written
once in (location, scale).  Only `delta_method` maps them to the
reported parameters, by one flag of `families.LAWS`, `exp_location`
(Frechet's sigma = exp(location), reported after the scale).  S_T = D
Sigma_T D', on the branch-aware Jacobian, is equivariant in the scale:
`delta_method`, one pass per fit, forms S_T / scale^2 on the ratio
location / scale, multiplies by scale^2 once and reads the standard
errors off the same product, and `are` takes det S_T = det(D)^2
det(Sigma_T) in closed form in the same units, for the ARE versus
maximum likelihood, (det S_MLE / det S_T)^(1/2); each det is rejected
when it over- or underflows.  Both share one singular rule, relative to
the discriminant's terms.  The record holds the coefficients of the
ARE's quadratics, and S_MLE comes as rows of Python floats
(`FamilyLaw.s_mle`), so an ARE point, cold or warm, is arithmetic on
Python floats.  The module imports no numpy: only the views that
return arrays (`sigma_T`, `jacobian_at_moments`, `s_mle`) and
`delta_method`, a fit's covariance, load it when called.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .families import LAWS, Branch, Family, ParameterVector
from .moments import MomentConstants, TrimmingScheme, scheme_record

__all__ = [
    "SingularityError",
    "AreResult",
    "sigma_T",
    "jacobian_at_moments",
    "s_mle",
    "are",
    "breakdown_points",
    "delta_method",
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
    (a, b), (c, d) = m.tolist() if hasattr(m, "tolist") else m
    return a * d - b * c


def _in_range(det: float, name: str) -> float:
    """det S_MLE or det S_T, which the ARE ratio needs to be a positive
    normal float; otherwise the parameters are out of range.  From
    finite entries a NaN det is inf - inf: both products overflowed."""
    if math.isnan(det):
        raise ValueError(f"parameters out of range: det {name} overflows")
    if not sys.float_info.min <= det < math.inf:
        raise ValueError(f"parameters out of range: det {name} is {det}")
    return det


def _sigma_entries(loc: float, scale: float, lam: dict):
    """(s11, s12, s22) of Sigma_T for the given location and scale;
    ValueError when a power of them overflows.  Lambda_122 and
    Lambda_222 pair the base with its half square, odd moments that the
    closed forms make exactly 0 on windows symmetric about 1/2; such a
    term is left out, so it stays 0 where the power beside it is inf."""
    try:
        s11 = scale ** 2 * lam["111"]
        s12 = 2.0 * loc * scale ** 2 * lam["121"]
        if lam["122"]:
            s12 += 2.0 * scale ** 3 * lam["122"]
        s22 = 4.0 * loc ** 2 * scale ** 2 * lam["221"]
        if lam["222"]:
            s22 += 8.0 * loc * scale ** 3 * lam["222"]
        s22 += 4.0 * scale ** 4 * lam["223"]
    except OverflowError:
        raise ValueError("parameters out of range: Sigma_T overflows") from None
    return s11, s12, s22


def sigma_T(family: Family, params: ParameterVector,
            scheme: TrimmingScheme):
    """Asymptotic covariance of (T1_hat, T2_hat), the trimmed moments of
    the transformed data, in the location-scale form of the family, as
    an array; ValueError when a power of its parameters overflows."""
    import numpy as np

    params.validate(family)
    law = LAWS[family]
    s11, s12, s22 = _sigma_entries(*law.location_scale(params),
                                   scheme_record(law.base, scheme).lam)
    return np.array([[s11, s12], [s12, s22]])


def jacobian_at_moments(t1, t2, c: MomentConstants, branch=Branch.PLUS):
    """Jacobian of the estimator map (g1, g2) at moment values (t1, t2),
    for a family's constants c (`eta_constants`): the rows (d location,
    d scale) of the location-scale form, for every family; only
    `delta_method` maps them to the reported parameters.  branch is a
    `Branch` or its value; EQUAL_TRIM takes the plus sign.  An array."""
    import numpy as np

    sign = -1.0 if Branch(branch) is Branch.MINUS else 1.0
    disc = t2 - c.eta_r * t1 * t1
    if disc < _SINGULAR_TOL * (abs(t2) + abs(c.eta_r * t1 * t1)):
        raise SingularityError(
            f"scale discriminant {disc:.4e} is vanishing or negative")
    root = math.sqrt(c.eta_12) * math.sqrt(disc)
    ds1 = sign * (-c.eta_r * t1 / root) + (c.m1_11 - c.m1_22) / c.eta_12
    ds2 = sign / (2.0 * root)
    return np.array(((1.0 - c.m1_11 * ds1, ds2 * -c.m1_11), (ds1, ds2)))


def _s_mle_rows(family: Family, params: ParameterVector):
    """S_MLE as the rows of Python floats of `FamilyLaw.s_mle`, and its
    determinant; ValueError when either is out of range."""
    params.validate(family)
    try:
        rows = LAWS[family].s_mle(params)
    except OverflowError:
        raise ValueError("parameters out of range: S_MLE overflows") from None
    return rows, _in_range(det2(rows), "S_MLE")


def s_mle(family: Family, params: ParameterVector):
    """Asymptotic covariance of the MLE, the inverse Fisher information
    (`FamilyLaw.s_mle`), as an array; ValueError when it or its
    determinant is out of range."""
    import numpy as np

    return np.array(_s_mle_rows(family, params)[0])


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
    the size of its terms.  Everything but the point comes from the
    cached `moments.scheme_record` of the family's base and the scheme,
    shared by normal and lognormal, so a warm point is one cache lookup
    and arithmetic on Python floats.
    """
    det_mle = _s_mle_rows(family, params)[1]
    law = LAWS[family]
    loc, scale = law.location_scale(params)
    c, lam, q2, q1, q0, d2, d1, d0 = scheme_record(law.base, scheme)
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
    if c.eta_r != 1.0 and not math.isfinite(ell * ell):
        u, v, w = 1.0, 1.0 / ell, 1.0 / ell / ell
    quad = q2 * u * u
    lin = q1 * v
    const = q0 * w
    disc = quad + lin + const
    if disc < _SINGULAR_TOL * (abs(quad) + abs(lin) + abs(const)):
        return AreResult(0.0, math.inf, True)
    det_sigma = d2 * u * u + d1 * v + d0 * w
    g = law.location_factor(params.sigma) * scale * scale
    det_t = _in_range(g * g * det_sigma / (c.eta_12 * disc), "S_T")
    return AreResult(math.sqrt(det_mle / det_t), det_t)


def breakdown_points(scheme: TrimmingScheme):
    """(lower, upper) breakdown points of the trimmed estimator."""
    return (min(scheme.a1, scheme.a2), min(scheme.b1, scheme.b2))


def delta_method(fit):
    """(S_T, SEs): the delta-method covariance S_T at the fitted values,
    on the `Branch` the fit took (divide by n for the covariance of the
    estimates), and the standard errors of the reported parameters,
    sqrt(S_T / n) on the diagonal, in `names` order.  D and Sigma_T are
    taken in units of the fitted scale s, like `are`'s: M / s^2 = D
    Sigma_T D' is symmetrized and multiplied by s^2 once, and S_T is M
    with the location row and column times `location_factor`.  This is
    the one place where a Jacobian meets the reported parameters: where
    `exp_location` is set, the rows (d location, d scale) of
    `jacobian_at_moments` and the factors are taken in reverse.  Each SE
    takes its square root before that factor, so a Frechet sigma's SE,
    sigma * sqrt(var / n), stays in range where sigma^2 underflows.
    ValueError when S_T overflows."""
    import numpy as np

    law = LAWS[fit.family]
    loc, s = law.location_scale(fit.params)
    record = scheme_record(law.base, fit.scheme)
    jac = jacobian_at_moments(fit.t1 / s, fit.t2 / s / s, record.c,
                              fit.branch)
    s11, s12, s22 = _sigma_entries(loc / s, 1.0, record.lam)
    factors = (law.location_factor(fit.params.sigma), 1.0)
    if law.exp_location:
        jac, factors = jac[::-1], factors[::-1]
    try:
        with np.errstate(over="raise"):
            m = jac @ np.array([[s11, s12], [s12, s22]]) @ jac.T
            m = 0.5 * (m + m.T) * s * s
            cov = m * np.outer(factors, factors)
    except FloatingPointError:
        raise ValueError("parameters out of range: the delta-method "
                         "covariance overflows") from None
    return cov, [g * math.sqrt(m[i, i] / fit.n)
                 for i, g in enumerate(factors)]
