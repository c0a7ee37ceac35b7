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

Every distribution function of a family is written from its spec:
the base law of Z (normal or standard Gumbel), the transform, its
inverse and its log-Jacobian.  The scalar base quantile is the law's
`base` (the Cephes port that equals scipy's `ndtri` bit for bit, and
the Gumbel G); the spec's `base_quantile` is the Monte Carlo draw's
block kernel, which forwards a whole block of uniforms to scipy's
`ndtri` (imported at its first call) or to numpy's logs.  Importing
the package, `fit`, `are` and `gof` leave scipy unloaded.  Off the
draw, every log reaching the 17 printed digits (the Gumbel quantile,
the log transform of the data) is libm's `math.log`, whose rounding
does not depend on the host's SIMD extensions, and the Frechet sigma =
exp(location) of `FamilySpec.mle` and `estimators.fit` is libm's
`math.exp` (`FamilyLaw.params`); a study's rows take numpy's exp.

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
)

__all__ = [
    "Family",
    "ParameterVector",
    "FamilySpec",
    "SPECS",
    "sample",
    "mle_normal",
    "mle_frechet",
]


def sample(family: Family, params: ParameterVector, n: int, seed) -> np.ndarray:
    """n i.i.d. draws by inverse transform from a seeded uniform stream.

    `seed` may be an int, a SeedSequence or a Generator; identical seeds
    give identical output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    params.validate(family)
    spec = SPECS[family]
    u = np.random.default_rng(seed).random(n)
    return spec.inverse(spec.draw(params, u))


def _normal_rows(y, work=None):
    """Normal MLE of each row of y (R, n): the mean and the
    1/n-variance standard deviation.  The squared deviations are formed
    in work[0] when a workspace (2, R, n) is given (see `FamilySpec`)."""
    mu = y.mean(axis=1)
    dev = np.subtract(y, mu[:, None], out=None if work is None else work[0])
    return mu, np.sqrt(np.square(dev, out=dev).mean(axis=1))


def mle_normal(data):
    """Sample mean and the 1/n-variance standard deviation."""
    x = np.asarray(data, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two observations")
    theta, sigma = _normal_rows(x.reshape(1, -1))
    return float(theta[0]), float(sigma[0])


# A row converges at the Newton step that is at most _MLE_RTOL of beta: the
# stepped iterate is then within rounding of the root (convergence is
# quadratic), so the row is recorded there and iterated no further.
_MLE_RTOL, _MLE_MAX_ITER = 1e-9, 100


def _frechet_rows(logx, work=None):
    """Frechet MLE of each row of log-data (R, n) as (log sigma, beta).

    beta solves the score xi(b) = b + E_w[l] - mean(l) = 0, E_w the mean
    of l = log x under weights exp(-l / b).  xi has slope
    1 + Var_w(l) / b^2 >= 1 and rises from min(l) - mean(l) < 0 at 0+ to
    >= 0 at mean(l) - min(l), which brackets the root.  Newton steps
    start from the log-moment estimate sqrt(6) / pi * sd(l), with sd^2 =
    E[d^2] - mean(d)^2 of the shifted data d = l - min(l) (mean(d) / 2,
    inside the bracket, where rounding leaves that not positive), and fall
    back to bisection when they leave the bracket unconverged; only
    unconverged rows are iterated.  A row converges at the iterate b whose
    step s is at most _MLE_RTOL * b, with beta = b - s and
    log sigma = min(l) - beta * (log(mean(exp(-d / b))) - E_w[d] * s / b^2),
    the first-order move of the log-mean from b to beta (its second-order
    term is below 1e-18 relative).  Constant rows (no root), non-finite
    rows and no convergence within _MLE_MAX_ITER steps leave the row NaN.
    With a workspace work (2, R, n) (see `FamilySpec`), the shifted data
    and the scratch array are its two halves, and only the shrinking copy
    of the iterated rows is new.
    """
    n = logx.shape[1]
    lmin = logx.min(axis=1)
    if work is None:
        work = np.empty((2,) + logx.shape)
    # xi is shift invariant; d >= 0 keeps the weights exp(-d / b) <= 1.
    shifted = np.subtract(logx, lmin[:, None], out=work[0])
    dbar = shifted.mean(axis=1)
    loc, beta = np.full(len(logx), np.nan), np.full(len(logx), np.nan)
    rows = np.flatnonzero(np.isfinite(dbar) & (dbar > 0.0))
    d = shifted if rows.size == len(logx) else shifted[rows]
    lo, hi = np.zeros(rows.size), dbar[rows]
    sd = np.sqrt(np.maximum(np.einsum("ij,ij->i", d, d) / n - hi * hi, 0.0))
    b = np.where(sd > 0.0, np.minimum(math.sqrt(6.0) / math.pi * sd, hi),
                 0.5 * hi)
    # Every block-sized step writes into one scratch array, whose leading
    # rows hold the rows still iterated; the weighted sums of d and d^2
    # are formed without writing their products.
    for _ in range(_MLE_MAX_ITER):
        if rows.size == 0:
            break
        e = work[1, :rows.size]
        np.exp(np.divide(d, -b[:, None], out=e), out=e)
        s0 = e.sum(axis=1)
        m1 = np.einsum("ij,ij->i", e, d) / s0
        xi = b + m1 - dbar[rows]
        m2 = np.einsum("ij,ij,ij->i", e, d, d) / s0
        step = xi / (1.0 + (m2 - m1 * m1) / (b * b))
        done, nxt = np.abs(step) <= _MLE_RTOL * b, b - step
        if done.any():
            r, bd = rows[done], b[done]
            beta[r] = nxt[done]
            loc[r] = lmin[r] - beta[r] * (np.log(s0[done] / n)
                                          - m1[done] * step[done] / (bd * bd))
            keep = ~done
            rows, b, nxt, xi, lo, hi = (
                v[keep] for v in (rows, b, nxt, xi, lo, hi))
            # The rows still iterated are copied from the shifted data
            # once the previous copy is let go, so one copy at most is held.
            del d
            d = shifted[rows]
        below = xi < 0.0
        lo, hi = np.where(below, b, lo), np.where(below, hi, b)
        b = np.where((lo < nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
    return loc, beta


def mle_frechet(data):
    """Frechet MLE (beta, sigma) of one sample: `FamilySpec.mle`."""
    p = SPECS[Family.FRECHET].mle(data)
    return p.beta, p.sigma


_log_each = np.frompyfunc(math.log, 1, 1)


def _log(u):
    """log elementwise over a float or an array, with libm's rounding
    (numpy's SIMD log may round differently, by host), so each row of a
    batch fit equals the fit of that sample alone; a float or a 0-d array
    gives a numpy float64, as a ufunc does."""
    return np.asarray(_log_each(u), dtype=float)[()]


def _gumbel_quantile(u, out):
    """Standard Gumbel quantile G(u) = -log(-log u) of a block of
    uniforms, log X for the unit Frechet model, written into `out` with
    numpy's logs (a ufunc's `out`)."""
    return np.negative(np.log(np.negative(np.log(u, out=out), out=out),
                              out=out), out=out)


_scipy_ndtri = None


def _ndtri(u, out):
    """Standard normal quantile Phi^{-1}(u) of a block of uniforms,
    written into `out`: scipy's `ndtri` ufunc, imported on the first
    call.  This one function stays the normal families' base_quantile;
    the law's `base` is the same quantile at one float, bit for bit."""
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
    law given by the law's `base`, its quantile at one float, and
    `base_logpdf`; every distribution function of the family is derived
    from these.  `base_quantile` is the draw's block kernel: the base
    quantile of an array of uniforms, written into `out`.  `mle_rows`
    fits each row of transformed data (R, n), as (location, scale)
    arrays that are NaN where no estimate exists; its optional second
    argument, a workspace (2, R, n), holds its row-sized temporaries, so
    that a caller fitting block after block (`simulation.run_study`)
    allocates them once.
    """

    law: FamilyLaw
    transform: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    log_jacobian: Callable[[np.ndarray], np.ndarray]
    base_quantile: Callable
    base_logpdf: Callable
    mle_rows: Callable[..., Tuple[np.ndarray, np.ndarray]]

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
        return self.law.params(float(loc[0]), float(scale[0]))

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
        mle_rows=_frechet_rows),
}
