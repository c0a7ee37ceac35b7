"""Parametric families: normal, lognormal and Frechet (location zero).

Each family is one `FamilySpec` record in `SPECS` plus its reference
maximum likelihood estimator.  The trimmed-moment machinery only ever
fits a location-scale model y = location + scale * Z to transformed
data y, and the spec says how a family maps onto it:

- normal: y = x, Z ~ Phi^{-1}(U), (theta, sigma) = (location, scale);
- lognormal: y = log x, the normal model on log-data, with (theta,
  sigma) reported on the log scale;
- Frechet: y = log x = log sigma + beta * G with G = -log(-log U) the
  standard Gumbel quantile, so location = log sigma and scale = beta.

quantile, cdf, pdf/logpdf and sampling are written once from the spec:
the base law of Z (normal or standard Gumbel), the transform, its
inverse and its log-Jacobian.

The paper writes the Frechet constants with Delta(u) = log(-log u) =
-G(u): its kappa_k are the window averages of Delta^k, so the
location-scale constants are c_1 = -kappa_1 and c_2 = kappa_2.

Parameters
----------
Location-scale families carry (theta, sigma); the Frechet family
carries (beta, sigma) where beta = 1/alpha is the tail index and the
location is fixed at zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "Family",
    "ParameterVector",
    "FamilySpec",
    "SPECS",
    "EstimationError",
    "quantile",
    "cdf",
    "pdf",
    "logpdf",
    "sample",
    "mle_normal",
    "mle_frechet",
]


class EstimationError(Exception):
    """No admissible scale candidate; update the trimming proportions."""


class Family(enum.Enum):
    NORMAL = "normal"
    LOGNORMAL = "lognormal"
    FRECHET = "frechet"

    @classmethod
    def parse(cls, name: str) -> "Family":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown family {name!r}") from None


@dataclass(frozen=True)
class ParameterVector:
    """Model parameters.

    theta is the location (log-scale location for lognormal), sigma the
    scale, and beta the Frechet tail index (1/alpha); beta is None for
    the location-scale families.
    """

    theta: float = 0.0
    sigma: float = 1.0
    beta: Optional[float] = None

    def validate(self, family: Family) -> None:
        """Each reported parameter must be finite, and positive unless it
        is the location theta."""
        for name in SPECS[family].names:
            value = getattr(self, name)
            if value is None or not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "theta" and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    return u


def _location_scale(family: Family, params: ParameterVector):
    params.validate(family)
    spec = SPECS[family]
    return (spec, *spec.location_scale(params))


def quantile(family: Family, params: ParameterVector, u):
    """F^{-1}(u): the inverse transform of loc + scale * base_quantile(u)."""
    spec, loc, scale = _location_scale(family, params)
    return spec.inverse(loc + scale * spec.base_quantile(_check_u(u)))


def cdf(family: Family, params: ParameterVector, x):
    """The base cdf at the standardised transformed data."""
    spec, loc, scale = _location_scale(family, params)
    y = spec.transform(np.asarray(x, dtype=float))
    return spec.base_cdf((y - loc) / scale)


def logpdf(family: Family, params: ParameterVector, x):
    """Log-density: the base log-density at the standardised transformed
    data, minus log scale, plus the transform's log-Jacobian."""
    spec, loc, scale = _location_scale(family, params)
    y = spec.transform(np.asarray(x, dtype=float))
    return (spec.base_logpdf((y - loc) / scale) - math.log(scale)
            + spec.log_jacobian(y))


def pdf(family: Family, params: ParameterVector, x):
    return np.exp(logpdf(family, params, x))


def sample(family: Family, params: ParameterVector, n: int, seed) -> np.ndarray:
    """n i.i.d. draws by inverse transform from a seeded uniform stream.

    `seed` may be an int, a SeedSequence or a Generator; identical seeds
    give identical output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = _location_scale(family, params)[0]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return spec.inverse(spec.draw(params, rng.random(n)))


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
    """Frechet MLE of each row of log-data (R, n) as (log sigma, beta),
    NaN on rows without a likelihood root; see `mle_frechet`."""
    n = logx.shape[1]
    lmin = logx.min(axis=1)
    # xi is shift invariant; d >= 0 keeps the weights exp(-d / b) <= 1.
    d = logx - lmin[:, None]
    dbar = d.mean(axis=1)
    loc, beta = np.full(len(d), np.nan), np.full(len(d), np.nan)
    rows = np.flatnonzero(np.isfinite(dbar) & (dbar > 0.0))
    d, lo, hi = d[rows], np.zeros(rows.size), dbar[rows]
    sd = np.sqrt(((d - hi[:, None]) ** 2).mean(axis=1))
    b = np.minimum(math.sqrt(6.0) / math.pi * sd, hi)
    last = np.zeros(rows.size, dtype=bool)
    for _ in range(_MLE_MAX_ITER):
        if rows.size == 0:
            break
        w = np.exp(d / -b[:, None])
        s0 = w.sum(axis=1)
        wd = w * d
        m1 = wd.sum(axis=1) / s0
        xi = b + m1 - dbar[rows]
        good = last & (np.abs(xi) <= _MLE_RESIDUAL)
        beta[rows[good]] = b[good]
        loc[rows[good]] = lmin[rows[good]] - b[good] * np.log(s0[good] / n)
        step = xi / (1.0 + ((wd * d).sum(axis=1) / s0 - m1 * m1) / (b * b))
        below = xi < 0.0
        lo, hi = np.where(below, b, lo), np.where(below, hi, b)
        keep, last = ~last, np.abs(step) <= _MLE_RTOL * b
        b = b - step
        b = np.where((lo < b) & (b <= hi), b, 0.5 * (lo + hi))
        rows, d, b, lo, hi, last = (v[keep] for v in (rows, d, b, lo, hi, last))
    return loc, beta


def mle_frechet(data):
    """Frechet MLE (beta, sigma) of one sample, the one-row case of
    `_frechet_rows`.

    beta solves the score xi(b) = b + E_w[l] - mean(l) = 0, E_w the mean
    of l = log x under weights exp(-l / b).  xi has slope
    1 + Var_w(l) / b^2 >= 1 and rises from min(l) - mean(l) < 0 at 0+ to
    >= 0 at mean(l) - min(l), which brackets the root.  Newton steps
    start from the log-moment estimate sqrt(6) / pi * sd(l) and fall back
    to bisection when they leave the bracket; only unconverged rows are
    iterated.  Constant data (no root), no convergence within
    _MLE_MAX_ITER steps and a residual |xi| > 1e-10 raise EstimationError
    (NaN in the rows).  sigma follows in closed form.
    """
    x = np.asarray(data, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two observations")
    if np.any(x <= 0.0):
        raise ValueError("Frechet data must be positive")
    loc, beta = _frechet_rows(np.log(x).reshape(1, -1))
    if np.isnan(beta[0]):
        raise EstimationError("no Frechet likelihood root: constant data "
                              "or no convergence")
    return float(beta[0]), math.exp(loc[0])


def _gumbel_quantile(u):
    """Standard Gumbel quantile G(u) = -log(-log u): log X for the unit
    Frechet model."""
    return -np.log(-np.log(u))


def _log_data(label):
    """y = log x for positive data, its inverse, and the log-Jacobian
    log |dy/dx| = -log x = -y."""
    def transform(x):
        if np.any(x <= 0.0):
            raise ValueError(f"{label} data must be positive")
        return np.log(x)
    return dict(transform=transform, inverse=np.exp, log_jacobian=np.negative)


def _s_mle_frechet(p):
    """Inverse Frechet Fisher information in (beta, sigma); its
    determinant is 6 beta^4 sigma^2 / pi^2."""
    beta, sigma, g = p.beta, p.sigma, np.euler_gamma
    off = (1.0 - g) * sigma * beta ** 2
    return (6.0 / math.pi ** 2) * np.array([
        [beta ** 2, off],
        [off, (sigma * beta) ** 2 * ((g - 1.0) ** 2 + math.pi ** 2 / 6.0)],
    ])


def _frechet(beta, sigma):
    return ParameterVector(sigma=sigma, beta=beta)


# math.exp, also elementwise over arrays: np.exp may round differently, and
# each row of a batch fit must equal the fit of that sample alone.
_exp = np.frompyfunc(math.exp, 1, 1)


@dataclass(frozen=True)
class FamilySpec:
    """How one family maps onto the location-scale engine.

    The data y = transform(x) (x = inverse(y), with log |dy/dx| =
    log_jacobian(y)) follow y = loc + scale * Z, where Z has the base
    law given by `base_quantile`, `base_cdf` and `base_logpdf`; every
    distribution function of the family is derived from these.
    Reported parameters come in `names` order, also the row order of
    estimator Jacobians: Frechet reports (scale, exp(location)), so
    `scale_first` is set and the location row carries d sigma / d
    location = sigma (`location_factor`).  `params` takes floats or
    arrays.  `mle` fits the raw data, `mle_rows` each row of transformed
    data (R, n), as (location, scale) arrays that are NaN where no
    estimate exists, and `scaled` names the parameters in data units.
    The `mle` lambdas look the estimators up at call time, so rebinding
    the module-level names (as bench/spans.py does) reaches them.
    """

    names: Tuple[str, str]
    transform: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    log_jacobian: Callable[[np.ndarray], np.ndarray]
    base_quantile: Callable
    base_cdf: Callable
    base_logpdf: Callable
    location_scale: Callable[[ParameterVector], Tuple[float, float]]
    params: Callable[[float, float], ParameterVector]
    location_factor: Callable[[float], float]
    scale_first: bool
    mle: Callable[[np.ndarray], ParameterVector]
    mle_rows: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    s_mle: Callable[[ParameterVector], np.ndarray]
    scaled: Tuple[str, ...] = ()

    def estimates(self, p: ParameterVector) -> tuple:
        """The reported parameters of p, in `names` order."""
        return (getattr(p, self.names[0]), getattr(p, self.names[1]))

    def draw(self, p: ParameterVector, u) -> np.ndarray:
        """Transformed data loc + scale * base_quantile(u) from uniform
        draws u of any shape, which are clipped in place to stay strictly
        inside (0, 1): random() can return exactly 0."""
        loc, scale = self.location_scale(p)
        return loc + scale * self.base_quantile(
            np.clip(u, 1e-300, 1.0 - 1e-16, out=u))


_NORMAL_MAPS = dict(
    names=("theta", "sigma"),
    base_quantile=ndtri,
    base_cdf=ndtr,
    base_logpdf=lambda z: -0.5 * (z * z + math.log(2.0 * math.pi)),
    location_scale=lambda p: (p.theta, p.sigma),
    params=lambda loc, scale: ParameterVector(theta=loc, sigma=scale),
    location_factor=lambda sigma: 1.0,
    scale_first=False,
    mle_rows=_normal_rows,
    s_mle=lambda p: np.array([[p.sigma ** 2, 0.0],
                              [0.0, p.sigma ** 2 / 2.0]]),
)

SPECS = {
    Family.NORMAL: FamilySpec(
        transform=lambda x: x, inverse=lambda y: y,
        log_jacobian=lambda y: 0.0,
        mle=lambda x: ParameterVector(*mle_normal(x)),
        **_NORMAL_MAPS),
    Family.LOGNORMAL: FamilySpec(
        **_log_data("lognormal"),
        mle=lambda x: ParameterVector(
            *mle_normal(SPECS[Family.LOGNORMAL].transform(x))),
        **_NORMAL_MAPS),
    Family.FRECHET: FamilySpec(
        names=("beta", "sigma"),
        **_log_data("Frechet"),
        base_quantile=_gumbel_quantile,
        base_cdf=lambda z: np.exp(-np.exp(-z)),
        base_logpdf=lambda z: -z - np.exp(-z),
        location_scale=lambda p: (math.log(p.sigma), p.beta),
        params=lambda loc, scale: _frechet(scale, _exp(loc)),
        location_factor=lambda sigma: sigma,
        scale_first=True,
        mle=lambda x: _frechet(*mle_frechet(x)),
        mle_rows=_frechet_rows,
        s_mle=_s_mle_frechet,
        scaled=("sigma",)),
}
