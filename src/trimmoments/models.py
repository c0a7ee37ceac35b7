"""Parametric families on arrays: data, samples and the reference MLE.

A family's scalar facts, its `FamilyLaw` in `families.LAWS`, hold no
numpy; this module adds the array side in one `FamilySpec` record per
family in `SPECS`, whose `law` is that record.  The trimmed-moment
machinery only ever fits a location-scale model y = location + scale *
Z to transformed data y, and the spec says how a family's data map
onto it:

- normal: y = x, Z ~ Phi^{-1}(U), (theta, sigma) = (location, scale);
- lognormal: y = log x, the normal model on log-data, with (theta,
  sigma) reported on the log scale;
- Frechet: y = log x = log sigma + beta * G with G = -log(-log U) the
  standard Gumbel quantile, so location = log sigma and scale = beta.

The transformed quantile, the log-density and sampling are written
once from the spec: the base law of Z (normal or standard Gumbel), the
transform, its inverse and its log-Jacobian.  The base quantile on
arrays is the law's `base` element by element (`_ndtri`, the Cephes
port that equals scipy's `ndtri` bit for bit, and the Gumbel G); only
the Monte Carlo draw, a whole block of uniforms at once, forwards to
scipy's `ndtri` (imported at its first call) and to numpy's logs.
Importing the package, `fit`, `are` and `gof` leave scipy unloaded.
Off the draw, every log reaching the 17 printed digits (the Gumbel
quantile, the log transform of the data) is libm's `math.log`, whose
rounding does not depend on the host's SIMD extensions.

Parameters
----------
Location-scale families carry (theta, sigma); the Frechet family
carries (beta, sigma) where beta = 1/alpha is the tail index and the
location is fixed at zero.

`ParameterVector` and `FamilySpec`, like every record of the package,
are `typing.NamedTuple`s, which compare equal to a plain tuple of the
same values, not only to their own class.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .families import (
    LAWS,
    EstimationError,
    Family,
    FamilyLaw,
    ParameterVector,
    _gumbel_float,
    _ndtri_float,
)

__all__ = [
    "Family",
    "ParameterVector",
    "FamilySpec",
    "SPECS",
    "transformed_quantile",
    "logpdf",
    "sample",
    "mle_normal",
    "mle_frechet",
]


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    return u


def _location_scale(family: Family, params: ParameterVector):
    params.validate(family)
    spec = SPECS[family]
    return (spec, *spec.law.location_scale(params))


def transformed_quantile(family: Family, params: ParameterVector, u):
    """loc + scale * base_quantile(u), F^{-1}(u) on the transformed scale."""
    spec, loc, scale = _location_scale(family, params)
    return loc + scale * spec.base_quantile(_check_u(u))


def logpdf(family: Family, params: ParameterVector, x):
    """Log-density: the base log-density at the standardised transformed
    data, minus log scale, plus the transform's log-Jacobian."""
    spec, loc, scale = _location_scale(family, params)
    y = spec.transform(np.asarray(x, dtype=float))
    return (spec.base_logpdf((y - loc) / scale) - math.log(scale)
            + spec.log_jacobian(y))


def sample(family: Family, params: ParameterVector, n: int, seed) -> np.ndarray:
    """n i.i.d. draws by inverse transform from a seeded uniform stream.

    `seed` may be an int, a SeedSequence or a Generator; identical seeds
    give identical output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = _location_scale(family, params)[0]
    u = np.random.default_rng(seed).random(n)
    return spec.inverse(spec.draw(params, u))


def _normal_rows(y):
    """Normal MLE of each row of y (R, n): the mean and the
    1/n-variance standard deviation."""
    mu = y.mean(axis=1)
    return mu, np.sqrt(((y - mu[:, None]) ** 2).mean(axis=1))


def mle_normal(data):
    """Sample mean and the 1/n-variance standard deviation."""
    x = np.asarray(data, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two observations")
    theta, sigma = _normal_rows(x.reshape(1, -1))
    return float(theta[0]), float(sigma[0])


# Once a Newton step is below _MLE_RTOL of beta, the next iterate is within
# rounding of the root (convergence is quadratic) and is the row's last.
_MLE_RTOL, _MLE_MAX_ITER, _MLE_RESIDUAL = 1e-9, 100, 1e-10


def _frechet_rows(logx):
    """Frechet MLE of each row of log-data (R, n) as (log sigma, beta).

    beta solves the score xi(b) = b + E_w[l] - mean(l) = 0, E_w the mean
    of l = log x under weights exp(-l / b).  xi has slope
    1 + Var_w(l) / b^2 >= 1 and rises from min(l) - mean(l) < 0 at 0+ to
    >= 0 at mean(l) - min(l), which brackets the root.  Newton steps
    start from the log-moment estimate sqrt(6) / pi * sd(l) and fall back
    to bisection when they leave the bracket unconverged; only unconverged
    rows are iterated.  Constant rows (no root), no convergence within
    _MLE_MAX_ITER steps and a residual |xi| > 1e-10 leave the row NaN.
    sigma follows in closed form.
    """
    n = logx.shape[1]
    lmin = logx.min(axis=1)
    # xi is shift invariant; d >= 0 keeps the weights exp(-d / b) <= 1.
    d = logx - lmin[:, None]
    dbar = d.mean(axis=1)
    loc, beta = np.full(len(d), np.nan), np.full(len(d), np.nan)
    rows = np.flatnonzero(np.isfinite(dbar) & (dbar > 0.0))
    if rows.size < len(d):
        d = d[rows]
    lo, hi = np.zeros(rows.size), dbar[rows]
    # Every block-sized step writes into one scratch array, whose leading
    # rows hold the rows still iterated; the weighted sums of d and d^2
    # are formed without writing their products.
    w = np.empty_like(d)
    np.subtract(d, hi[:, None], out=w)
    sd = np.sqrt(np.square(w, out=w).mean(axis=1))
    b = np.minimum(math.sqrt(6.0) / math.pi * sd, hi)
    last = np.zeros(rows.size, dtype=bool)
    for _ in range(_MLE_MAX_ITER):
        if rows.size == 0:
            break
        e = w[:rows.size]
        np.exp(np.divide(d, -b[:, None], out=e), out=e)
        s0 = e.sum(axis=1)
        m1 = np.einsum("ij,ij->i", e, d) / s0
        xi = b + m1 - dbar[rows]
        good = last & (np.abs(xi) <= _MLE_RESIDUAL)
        beta[rows[good]] = b[good]
        loc[rows[good]] = lmin[rows[good]] - b[good] * np.log(s0[good] / n)
        m2 = np.einsum("ij,ij,ij->i", e, d, d) / s0
        step = xi / (1.0 + (m2 - m1 * m1) / (b * b))
        below = xi < 0.0
        lo, hi = np.where(below, b, lo), np.where(below, hi, b)
        keep, last = ~last, np.abs(step) <= _MLE_RTOL * b
        b = b - step
        b = np.where(last | ((lo < b) & (b <= hi)), b, 0.5 * (lo + hi))
        if not keep.all():
            rows, d, b, lo, hi, last = (v[keep]
                                        for v in (rows, d, b, lo, hi, last))
    return loc, beta


def mle_frechet(data):
    """Frechet MLE (beta, sigma) of one sample: `FamilySpec.mle`."""
    p = SPECS[Family.FRECHET].mle(data)
    return p.beta, p.sigma


def _libm(f):
    """f elementwise over a float or an array, with libm's rounding (numpy's
    SIMD log and exp may round differently, by host), so each row of a
    batch fit equals the fit of that sample alone; a float or a 0-d array
    gives a numpy float64, as a ufunc does.  An exception of f, such as
    math.exp's OverflowError, propagates."""
    each = np.frompyfunc(f, 1, 1)
    return lambda u: np.asarray(each(u), dtype=float)[()]


_log, _exp = _libm(math.log), _libm(math.exp)
_gumbel_libm = _libm(_gumbel_float)


def _gumbel_quantile(u, out=None):
    """Standard Gumbel quantile G(u) = -log(-log u): log X for the unit
    Frechet model, written into `out` when given (a ufunc's `out`).

    Without `out` (`gof`'s quantiles) it is the law's G at each point,
    with libm's logs; the draw's block keeps numpy's.
    """
    if out is None:
        return _gumbel_libm(u)
    return np.negative(np.log(np.negative(np.log(u, out=out), out=out),
                              out=out), out=out)


_ndtri_libm = _libm(_ndtri_float)
_scipy_ndtri = None


def _ndtri(u, out=None):
    """Standard normal quantile Phi^{-1}(u), bit for bit scipy.special.ndtri.

    Without `out` (`gof`'s quantiles) it is the law's Cephes port at
    each point, about 1.5 us a point.  With `out`, the draw's whole block
    of uniforms, it forwards to scipy's ufunc, imported on the first
    such call.  This one function stays the normal families'
    base_quantile.
    """
    if out is None:
        return _ndtri_libm(u)
    global _scipy_ndtri
    if _scipy_ndtri is None:
        from scipy.special import ndtri as _scipy_ndtri
    return _scipy_ndtri(u, out=out)


def _log_data(label):
    """y = log x for positive data, its inverse, and the log-Jacobian
    log |dy/dx| = -log x = -y."""
    def transform(x):
        if np.any(x <= 0.0):
            raise ValueError(f"{label} data must be positive")
        return _log(x)
    return dict(transform=transform, inverse=np.exp, log_jacobian=np.negative)


class FamilySpec(NamedTuple):
    """How one family's data and samples meet its `FamilyLaw`, `law`.

    The data y = transform(x) (x = inverse(y), with log |dy/dx| =
    log_jacobian(y)) follow y = loc + scale * Z, where Z has the base
    law given by `base_quantile` (the law's `base` over a float or an
    array, which, like a ufunc, takes `out=`) and `base_logpdf`; every
    distribution function of the family is derived from these.
    `params` maps (location, scale), floats or arrays, to the reported
    parameters.  `mle_rows` fits each row of transformed data (R, n), as
    (location, scale) arrays that are NaN where no estimate exists.
    """

    law: FamilyLaw
    transform: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    log_jacobian: Callable[[np.ndarray], np.ndarray]
    base_quantile: Callable
    base_logpdf: Callable
    params: Callable[[float, float], ParameterVector]
    mle_rows: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

    def mle(self, x) -> ParameterVector:
        """The MLE of one raw sample x: row 0 of `mle_rows` on its
        transformed values.  Constant data (the smallest value equal to
        the largest; a normal spread may be a rounding residue) and a
        row without a positive scale (no likelihood root) raise
        EstimationError."""
        y = self.transform(np.asarray(x, dtype=float))
        if y.size < 2:
            raise ValueError("need at least two observations")
        loc, scale = self.mle_rows(y.reshape(1, -1))
        if not scale[0] > 0.0 or y.min() == y.max():
            raise EstimationError("no likelihood maximum: constant data "
                                  "or no convergence")
        return self.params(float(loc[0]), float(scale[0]))

    def draw(self, p: ParameterVector, u: np.ndarray) -> np.ndarray:
        """Transformed data loc + scale * base_quantile(u) from a float
        array u of uniform draws, of any shape, computed in u's buffer
        and returned there.  u is first clipped to stay strictly inside
        (0, 1): random() can return exactly 0."""
        loc, scale = self.law.location_scale(p)
        z = self.base_quantile(np.clip(u, 1e-300, 1.0 - 1e-16, out=u), out=u)
        return np.add(np.multiply(z, scale, out=z), loc, out=z)


_NORMAL_MAPS = dict(
    law=LAWS[Family.NORMAL],
    base_quantile=_ndtri,
    base_logpdf=lambda z: -0.5 * (z * z + math.log(2.0 * math.pi)),
    params=lambda loc, scale: ParameterVector(theta=loc, sigma=scale),
    mle_rows=_normal_rows,
)

SPECS = {
    Family.NORMAL: FamilySpec(
        transform=lambda x: x, inverse=lambda y: y,
        log_jacobian=lambda y: 0.0,
        **_NORMAL_MAPS),
    Family.LOGNORMAL: FamilySpec(
        **_log_data("lognormal"),
        **_NORMAL_MAPS),
    Family.FRECHET: FamilySpec(
        law=LAWS[Family.FRECHET],
        **_log_data("Frechet"),
        base_quantile=_gumbel_quantile,
        base_logpdf=lambda z: -z - np.exp(-z),
        params=lambda loc, scale: ParameterVector(sigma=_exp(loc),
                                                  beta=scale),
        mle_rows=_frechet_rows),
}
