"""Test oracles.  For the asymptotic covariance: the empirical-process
kernel, the (I, Ibar) endpoint integrals, V(i, j) through the closed
form for a parametrized model (the routine of `moments._v_pair` on
any moment functions, each integral its own quadrature), the
brute-force double integral that checks it, and the parameter-free
entries Lambda_ijk and Psi_ijk.  For the ARE: the population-level
Jacobian and the Jacobian's rows mapped to the reported parameters,
the data-unit product S_T = D Sigma_T D' that checks
`asymptotics.delta_method`, the ARE through that product, the
reference for the closed-form determinant of `asymptotics.are`, and the
correlation-scaled gap between two covariances.  For
the Frechet MLE: the likelihood score of one sample, a bracketing Brent
root search on it, and the batch Newton kernel written with a fresh
array for every block-sized step.  For the batch fits: one scheme's
fit with each moment the plain mean of its column slice.  For the
models: the quantile, pdf and cdf of each family.  For the constants:
the window averages c_k and the paper's kappa_k, the sigma of the plus
scale candidate, and the Gumbel segment moments to 30 digits and by the
adaptive rule.  For the integrals of quantile powers over (0, 1), whose
endpoints may be singular: an adaptive Gauss-Kronrod 7/15 integrator.
For the package's fixed rule: the same rule summed by numpy."""

import heapq
import math

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from trimmoments import quadrature
from trimmoments.asymptotics import (
    AreResult,
    SingularityError,
    _in_range,
    det2,
    jacobian_at_moments,
    s_mle,
    sigma_T,
)
from trimmoments.estimators import candidate_scales, solve_scale
from trimmoments.families import LAWS, Branch
from trimmoments.models import (
    _MLE_MAX_ITER,
    _MLE_RTOL,
    SPECS,
    Family,
    ParameterVector,
)
from trimmoments.moments import (
    SchemeError,
    TrimmingScheme,
    eta_constants,
    population_moments,
    scheme_record,
    trim_counts,
    window_moments,
)

# The package's K15 abscissae and weights, as arrays.
_XK, _WK = np.array(quadrature._XK), np.array(quadrature._WK)


# Adaptive quadrature for integrands that may diverge (integrably) at 0
# and 1, such as powers of quantile functions: a nested Gauss-Kronrod
# 7/15 rule driven by a global error heap, bisecting the subinterval with
# the largest error estimate until the accumulated error drops below
# 1e-10 (for a k-component integrand, a panel's error is the largest
# |K15 - G7|).  A limit at 0 or 1 gets geometric seed panels, and
# bisection toward it shrinks panels geometrically, the refinement such
# singularities need.  f is never called at 0 or 1: on a panel ending at
# 1, where a node may round to 1, the nodes are clamped below it.

# The 7-point Gauss weights embedded in the Kronrod rule.
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
    0.381830050505119,
    0.279705391489277,
    0.129484966168870,
])

# K15 weights and K15 minus G7 weights: one product gives both rules.
_W = np.stack((_WK, _WK - np.insert(_WG, range(8), 0.0)), axis=1)

_MAX_INTERVALS = 2 ** 16
_TOL = 1e-10
_BELOW_ONE = np.nextafter(1.0, 0.0)


class IntegrationError(Exception):
    """Raised when the subdivision budget is exhausted.

    Carries the best available estimate and its error bound so callers
    can decide whether to proceed anyway.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _gk15(f, a, b):
    """Kronrod-15 estimate on [a, b] of each component of f, plus the
    largest difference from the embedded Gauss-7 rule as the error."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XK
    if b == 1.0:
        x = np.minimum(x, _BELOW_ONE)
    y = np.asarray(f(x), dtype=float)
    r = half * (y @ _W)
    return r[..., 0], float(abs(r[..., 1]).max())


def integrate(f, a, b):
    """Integrate f over [a, b], absolute error <= 1e-10.

    Parameters
    ----------
    f : callable
        Vectorized integrand, finite on the open interval; it may return
        a (k, nodes) stack of k components.
    a, b : float
        Finite limits with a < b.  Endpoint values 0 and 1 are fine:
        only interior nodes are ever evaluated, and a limit at 0 or 1 is
        treated as a possible singularity of a quantile power.

    Returns
    -------
    float, or the k integrals of a stacked integrand

    Raises
    ------
    IntegrationError
        If the error target is not met within the 2**16 subinterval
        budget.
    ValueError
        On an invalid interval.
    """
    if not (a < b):
        raise ValueError(f"integration limits must satisfy a < b, got [{a}, {b}]")

    # Seed panels: peel geometric shells off the limits 0 and 1, where
    # quantile powers may diverge, so the first adaptive pass already
    # resolves most of the spike.
    w = b - a
    cuts = [a]
    if a == 0.0:
        cuts.extend(a + w * 10.0 ** (-k) for k in range(6, 0, -1))
    if b == 1.0:
        cuts.extend(b - w * 10.0 ** (-k) for k in range(1, 7))
    cuts.append(b)
    cuts = sorted(set(cuts))

    heap, total, total_err = [], 0.0, 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        est, err = _gk15(f, lo, hi)
        total += est
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, est))
    count = len(heap)

    while total_err > _TOL and heap:
        if count >= _MAX_INTERVALS:
            raise IntegrationError(
                f"quadrature budget of {_MAX_INTERVALS} subintervals exhausted "
                f"(error bound {total_err:.3e} > tol {_TOL:.3e})",
                total,
                total_err,
            )
        neg_err, lo, hi, est = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating point resolution; keep its estimate.
            total_err = max(total_err + neg_err, 0.0)  # drop its error
            continue
        e1, r1 = _gk15(f, lo, mid)
        e2, r2 = _gk15(f, mid, hi)
        total += (e1 + e2) - est
        total_err += (r1 + r2) + neg_err
        heapq.heappush(heap, (-r1, lo, mid, e1))
        heapq.heappush(heap, (-r2, mid, hi, e2))
        count += 1

    return total


def quantile(family: Family, params: ParameterVector, u):
    """F^{-1}(u): the inverse transform of loc + scale * G(u), G the
    law's base quantile taken at each point."""
    params.validate(family)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    spec = SPECS[family]
    loc, scale = spec.law.location_scale(params)
    base = np.vectorize(spec.law.base, otypes=[float])
    return spec.inverse(loc + scale * base(u))


def pdf(family: Family, params: ParameterVector, x):
    """The base density at the standardised transformed data, over the
    scale, times the transform's Jacobian."""
    params.validate(family)
    spec = SPECS[family]
    loc, scale = spec.law.location_scale(params)
    y = spec.transform(np.asarray(x, dtype=float))
    return np.exp(spec.base_logpdf((y - loc) / scale) - math.log(scale)
                  + spec.log_jacobian(y))


def cdf(family: Family, params: ParameterVector, x):
    """The base cdf (Phi, or the standard Gumbel exp(-exp(-z))) at the
    standardised transformed data."""
    params.validate(family)
    spec = SPECS[family]
    loc, scale = spec.law.location_scale(params)
    z = (spec.transform(np.asarray(x, dtype=float)) - loc) / scale
    return np.exp(-np.exp(-z)) if family is Family.FRECHET else ndtr(z)


def c_k(family: Family, a: float, bbar: float, k: int) -> float:
    """Window-averaged k-th power of the standard normal quantile."""
    if family is Family.FRECHET:
        raise ValueError("c_k is defined for the location-scale families; "
                         "use kappa_k")
    return _checked_window_mean(LAWS[family].base, a, bbar, k)


def kappa_k(a: float, bbar: float, k: int) -> float:
    """Window-averaged k-th power of Delta(u) = log(-log u) = -G(u)."""
    base = LAWS[Family.FRECHET].base
    return (-1) ** k * _checked_window_mean(base, a, bbar, k)


def _checked_window_mean(base, a: float, bbar: float, k: int) -> float:
    """The window average of base^k from the segment table, behind the
    checks on the window and on k that `eta_constants`, which takes
    validated schemes, does not need."""
    if not (0.0 <= a < bbar <= 1.0):
        raise SchemeError(
            f"window must satisfy 0 <= a < bbar <= 1, got ({a}, {bbar})")
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    return window_moments(base, a, bbar)(a, bbar, k) / (bbar - a)


def gumbel_segment(lo: float, hi: float) -> list:
    """(M1, ..., M4), the integrals of G^k over [lo, hi] for the Gumbel
    quantile G, by 30-digit mpmath quadrature in the Gumbel variable x =
    G(u) (G taken exactly at the float limits): the integrals of x^k
    g(x), g(x) = exp(-x - e^-x), over [G(lo), G(hi)], with u = 0 and 1 at
    x = -8 and 100, where |x|^4 g(x) < 1e-35."""
    with mpmath.workdps(30):
        ends = [-mpmath.log(-mpmath.log(mpmath.mpf(u))) if 0.0 < u < 1.0
                else mpmath.mpf(-8 if u == 0.0 else 100) for u in (lo, hi)]
        cuts = [ends[0]] + [mpmath.mpf(x) for x in (-2, 0, 2, 5, 10, 20, 40)
                            if ends[0] < x < ends[1]] + [ends[1]]
        return [float(mpmath.quad(
            lambda x, k=k: x ** k * mpmath.exp(-x - mpmath.exp(-x)), cuts))
            for k in (1, 2, 3, 4)]


def gumbel_segment_adaptive(lo: float, hi: float) -> np.ndarray:
    """(M1, ..., M4) of the Gumbel quantile on [lo, hi] by the adaptive
    rule in the Gumbel variable: the integrals of x^k g(x) over [G(lo),
    G(hi)], with u = 0 and 1 at x = -4 and 60 (|x|^4 g(x) < 3e-20 below
    -4 and < 2e-19 above 60; an adaptive pass started much further down
    can step over the steep rise of g)."""
    base = LAWS[Family.FRECHET].base
    a = -4.0 if lo == 0.0 else base(lo)
    b = 60.0 if hi == 1.0 else base(hi)
    if not a < b:
        return np.zeros(4)

    def powers(x):
        g = np.exp(-x - np.exp(-x))
        return np.stack([x ** k * g for k in (1, 2, 3, 4)])
    return integrate(powers, a, b)


def integrate_numpy(f, a, b):
    """The package's fixed K15 rule summed by numpy: f is vectorised,
    called once on every node of every panel, and may return a (k,
    nodes) stack of k components; the result is a float, or the k
    integrals.  The reference of `quadrature.integrate`, the same rule
    on Python floats."""
    cuts = np.array([a, *(k for k in quadrature._KNOTS if a < k < b), b])
    half = 0.5 * np.diff(cuts)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    y = np.asarray(f((mid[:, None] + half[:, None] * _XK).ravel()),
                   dtype=float)
    return (y.reshape(*y.shape[:-1], half.size, _XK.size) @ _WK) @ half


def plus_sigma(family: Family, t1, t2, scheme: TrimmingScheme):
    """The reported sigma of the plus scale candidate at moments (t1, t2),
    the sigma the Frechet Jacobian rows take at population moments."""
    c = eta_constants(family, scheme)
    plus = candidate_scales(t1, t2, c).plus
    return LAWS[family].params(t1 - c.m1_11 * plus, plus).sigma


def lambda_entries(scheme: TrimmingScheme) -> dict:
    """Location-scale covariance constants Lambda_ijk (parameter-free)."""
    return dict(scheme_record(LAWS[Family.NORMAL].base, scheme).lam)


def psi_entries(scheme: TrimmingScheme) -> dict:
    """Frechet covariance constants Psi_ijk (parameter-free), on the
    paper's Delta = -G base: the entries pairing one base factor with
    one half-square (k = 2) change sign."""
    return {k: -v if k[2] == "2" else v
            for k, v in scheme_record(LAWS[Family.FRECHET].base,
                                      scheme).lam.items()}


def jacobian_reported(family: Family, t1, t2, c, branch=Branch.PLUS,
                      sigma=None) -> np.ndarray:
    """`asymptotics.jacobian_at_moments` with its rows mapped to the
    family's reported parameters, written apart from `delta_method`'s
    map: (location, scale) for the location-scale families, (tail index,
    scale) for Frechet, whose sigma = exp(location) row is the location
    row times sigma.  The Frechet rows need the true (or fitted) sigma,
    a ValueError without it."""
    law = LAWS[family]
    if law.exp_location and sigma is None:
        raise ValueError(f"the {family.value} Jacobian needs sigma")
    location, scale = jacobian_at_moments(t1, t2, c, branch)
    location = location * law.location_factor(sigma)
    return np.array((scale, location) if law.exp_location
                    else (location, scale))


def jacobian_location_scale(params: ParameterVector, scheme: TrimmingScheme,
                            branch=Branch.PLUS,
                            family: Family = Family.NORMAL) -> np.ndarray:
    """Population-level Jacobian for the given branch."""
    t1, t2 = population_moments(family, params, scheme)
    return jacobian_reported(family, t1, t2, eta_constants(family, scheme),
                             branch, params.sigma)


def delta_covariance(sigma_t: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Delta-method covariance S_T = D Sigma_T D', in the units of its
    operands: with `sigma_T` and the Jacobian at data-unit moments, the
    data-unit reference for the S_T of `asymptotics.delta_method`."""
    s = jac @ sigma_t @ jac.T
    return 0.5 * (s + s.T)


def are_reference(family: Family, params: ParameterVector,
                  scheme: TrimmingScheme) -> AreResult:
    """The ARE through the full delta-method product D Sigma_T D' on the
    plus-branch Jacobian, singular where the Jacobian's discriminant
    vanishes."""
    det_mle = det2(s_mle(family, params))
    sigma_t = sigma_T(family, params, scheme)
    try:
        jac = jacobian_location_scale(params, scheme, Branch.PLUS, family)
    except SingularityError:
        return AreResult(0.0, math.inf, True)
    det_t = _in_range(det2(delta_covariance(sigma_t, jac)), "S_T")
    return AreResult(math.sqrt(det_mle / det_t), det_t)


def correlation_gap(got, ref) -> float:
    """max |got_ij - ref_ij| / sqrt(ref_ii ref_jj) of two covariances:
    the entrywise gap in units of the reference's standard deviations,
    so a cross term near zero is held to the scale of the diagonal."""
    sd = np.sqrt(np.diag(ref))
    return float(np.max(np.abs(np.asarray(got) - ref) / np.outer(sd, sd)))


def kernel(w, v):
    """Covariance kernel of the uniform empirical process."""
    return np.minimum(w, v) - np.asarray(w) * np.asarray(v)


def _guarded(coef, H, u):
    """coef * H(u), skipping the evaluation when coef is exactly zero
    (H may diverge at u in {0, 1})."""
    if coef == 0.0:
        return 0.0
    return coef * float(H(u))


def _i_lower(H, a, b, s):
    """I(a, b) given the precomputed integral s of H over [a, b]."""
    return _guarded(b, H, b) - _guarded(a, H, a) - s


def _i_upper(H, a, b, s):
    """Ibar(a, b) given the precomputed integral s of H over [a, b]."""
    return _guarded(1.0 - b, H, b) - _guarded(1.0 - a, H, a) + s


def _window_integral(a, b, *factors):
    """Integral over [a, b] of the product of the factor functions (0.0
    if a == b)."""
    if a == b:
        return 0.0
    return float(integrate(lambda u: math.prod(g(u) for g in factors), a, b))


def v_pair(HA, winA, HB, winB):
    """The closed-form double integral of K against HA', HB' over the
    windows winA x winB, for any moment functions H: the routine of
    `moments._v_pair` on callables, with every integral its own
    quadrature.  The roles are normalized so that the inner window (j)
    starts and ends no later than the outer one (i); K's symmetry makes
    the swap harmless."""
    if winB[0] <= winA[0] and winB[1] <= winA[1]:
        Hi, (ai, bbari), Hj, (aj, bbarj) = HA, winA, HB, winB
    else:
        Hi, (ai, bbari), Hj, (aj, bbarj) = HB, winB, HA, winA
    bi = 1.0 - bbari
    bj = 1.0 - bbarj
    int_hi_mid = _window_integral(ai, bbarj, Hi)
    int_hj_mid = _window_integral(ai, bbarj, Hj)
    int_hihj_mid = _window_integral(ai, bbarj, Hi, Hj)
    int_hi_right = _window_integral(bbarj, bbari, Hi)

    total = 0.0
    if aj < ai:
        total = (_i_lower(Hj, aj, ai, _window_integral(aj, ai, Hj))
                 * _i_upper(Hi, ai, bbari, int_hi_mid + int_hi_right))
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
    return float(total)


def i_integrals(H, a, b):
    """The pair (I, Ibar) over [a, b].

    I = b H(b) - a H(a) - int_a^b H;  Ibar = (1-b) H(b) - (1-a) H(a)
    + int_a^b H.  Zero-width intervals give (0, 0) without evaluating H.
    """
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError(f"need 0 <= a <= b <= 1, got ({a}, {b})")
    if a == b:
        return 0.0, 0.0
    s = integrate(H, a, b)
    return _i_lower(H, a, b, s), _i_upper(H, a, b, s)


def _delta(u):
    return np.log(-np.log(u))


def _h_population(family: Family, params: ParameterVector):
    """(H1, H2): population moment functions h_j o F^{-1} on (0, 1)."""
    if family is Family.FRECHET:
        beta, ls = params.beta, math.log(params.sigma)
        return (
            lambda u: ls - beta * _delta(u),
            lambda u: (ls - beta * _delta(u)) ** 2,
        )
    theta, sigma = params.theta, params.sigma
    return (
        lambda u: theta + sigma * ndtri(u),
        lambda u: (theta + sigma * ndtri(u)) ** 2,
    )


def _h_derivatives(family: Family, params: ParameterVector):
    """(H1', H2') for the brute-force double integral."""
    if family is Family.FRECHET:
        beta, ls = params.beta, math.log(params.sigma)

        def d1(u):
            return -beta / (u * np.log(u))

        def d2(u):
            return (2.0 * beta / (u * np.log(u))) * (beta * _delta(u) - ls)

        return d1, d2
    theta, sigma = params.theta, params.sigma

    def qprime(u):
        q = ndtri(u)
        return np.sqrt(2.0 * np.pi) * np.exp(0.5 * q * q)

    return (
        lambda u: sigma * qprime(u),
        lambda u: 2.0 * sigma * (theta + sigma * ndtri(u)) * qprime(u),
    )


def v_entry(family: Family, params: ParameterVector, i: int, j: int,
            scheme: TrimmingScheme) -> float:
    """Closed-form V(i, j) for the given model and scheme."""
    params.validate(family)
    h1, h2 = _h_population(family, params)
    hs = {1: h1, 2: h2}
    return v_pair(hs[i], scheme.window(i), hs[j], scheme.window(j))


def v_entry_bruteforce(family: Family, params: ParameterVector, i: int, j: int,
                       scheme: TrimmingScheme, grid_n: int = 400) -> float:
    """Midpoint-rule evaluation of the double integral defining V(i, j)."""
    if grid_n < 200:
        raise ValueError("grid_n must be >= 200")
    params.validate(family)
    d1, d2 = _h_derivatives(family, params)
    ds = {1: d1, 2: d2}
    ai, bbari = scheme.window(i)
    aj, bbarj = scheme.window(j)
    w = ai + (bbari - ai) * (np.arange(grid_n) + 0.5) / grid_n
    v = aj + (bbarj - aj) * (np.arange(grid_n) + 0.5) / grid_n
    kmat = np.minimum(v[:, None], w[None, :]) - np.outer(v, w)
    integrand = kmat * ds[j](v)[:, None] * ds[i](w)[None, :]
    dv = (bbarj - aj) / grid_n
    dw = (bbari - ai) / grid_n
    return float(np.sum(integrand) * dv * dw)


def frechet_score(beta, logx):
    """The Frechet likelihood score xi(beta) of one sample, strictly
    increasing in beta; the MLE of beta is its root."""
    z = -logx / beta
    m = np.max(z)
    w = np.exp(z - m)
    return beta + float(np.dot(w, logx) / np.sum(w)) - float(np.mean(logx))


def mle_frechet_brent(x):
    """Frechet MLE (beta, sigma) of one sample: Brent's method on the
    score, bracketed by halving and doubling from the sample coefficient
    of variation."""
    logx = np.log(x)
    lo = hi = min(max(float(np.std(x) / np.mean(x)), 1e-3), 1e3)
    while frechet_score(lo, logx) > 0.0:
        lo *= 0.5
    while frechet_score(hi, logx) < 0.0:
        hi *= 2.0
    beta = brentq(frechet_score, lo, hi, args=(logx,), xtol=1e-14,
                  rtol=8.9e-16)
    z = -logx / beta
    m = np.max(z)
    return beta, math.exp(-beta * (m + math.log(float(np.mean(np.exp(z - m))))))


def frechet_rows_allocating(logx):
    """`models._frechet_rows` with a fresh array for every block-sized
    step: the same IEEE operations in the same order, so the kernel must
    match it bit for bit."""
    n = logx.shape[1]
    lmin = logx.min(axis=1)
    # xi is shift invariant; d >= 0 keeps the weights exp(-d / b) <= 1.
    d = logx - lmin[:, None]
    dbar = d.mean(axis=1)
    loc, beta = np.full(len(d), np.nan), np.full(len(d), np.nan)
    rows = np.flatnonzero(np.isfinite(dbar) & (dbar > 0.0))
    d, lo, hi = d[rows], np.zeros(rows.size), dbar[rows]
    sd = np.sqrt(np.maximum(np.einsum("ij,ij->i", d, d) / n - hi * hi, 0.0))
    b = np.where(sd > 0.0, np.minimum(math.sqrt(6.0) / math.pi * sd, hi),
                 0.5 * hi)
    for _ in range(_MLE_MAX_ITER):
        if rows.size == 0:
            break
        w = np.exp(d / -b[:, None])
        s0 = w.sum(axis=1)
        m1 = np.einsum("ij,ij->i", w, d) / s0
        xi = b + m1 - dbar[rows]
        m2 = np.einsum("ij,ij,ij->i", w, d, d) / s0
        step = xi / (1.0 + (m2 - m1 * m1) / (b * b))
        done, nxt = np.abs(step) <= _MLE_RTOL * b, b - step
        r, bd = rows[done], b[done]
        beta[r] = nxt[done]
        loc[r] = lmin[r] - beta[r] * (np.log(s0[done] / n)
                                      - m1[done] * step[done] / (bd * bd))
        keep = ~done
        rows, d, b, nxt, xi, lo, hi = (
            v[keep] for v in (rows, d, b, nxt, xi, lo, hi))
        below = xi < 0.0
        lo, hi = np.where(below, b, lo), np.where(below, hi, b)
        b = np.where((lo < nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
    return loc, beta


def fit_rows_by_slices(ys, squares, scheme: TrimmingScheme, c, mle_scale):
    """`estimators.row_moments`, then `solve_rows`, for one scheme, each
    moment the plain mean over its kept column slice of ys or of the
    squares; returns the scheme's (location, scale, minus, pair, t1,
    t2)."""
    n = ys.shape[1]
    lo1, hi1 = trim_counts(n, scheme.a1, scheme.b1)
    lo2, hi2 = trim_counts(n, scheme.a2, scheme.b2)
    t1 = ys[:, lo1:n - hi1].mean(axis=1)
    t2 = squares[:, lo2:n - hi2].mean(axis=1)
    scale, minus, pair = solve_scale(t1, t2, c, mle_scale)
    scale = np.where((ys[:, 0] == ys[:, -1]) | ~(scale > 0.0), np.nan, scale)
    return t1 - c.m1_11 * scale, scale, minus, pair, t1, t2
