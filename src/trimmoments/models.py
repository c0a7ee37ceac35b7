"""Parametric families: normal, lognormal and Frechet (location zero).

Each family exposes quantile/cdf/pdf/sampling, its reference maximum
likelihood estimator and one `FamilySpec` record in `SPECS`.  The
trimmed-moment machinery only ever fits a location-scale model
y = location + scale * Z to transformed data y, and the spec says how a
family maps onto it:

- normal: y = x, Z ~ Phi^{-1}(U), (theta, sigma) = (location, scale);
- lognormal: y = log x, the normal model on log-data, with (theta,
  sigma) reported on the log scale;
- Frechet: y = log x = log sigma + beta * G with G = -log(-log U) the
  standard Gumbel quantile, so location = log sigma and scale = beta.

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
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if family is Family.FRECHET:
            if self.beta is None or not (self.beta > 0):
                raise ValueError(f"beta must be positive, got {self.beta}")


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    return u


def quantile(family: Family, params: ParameterVector, u):
    """F^{-1}(u) for the parametrized model."""
    params.validate(family)
    u = _check_u(u)
    if family is Family.NORMAL:
        return params.theta + params.sigma * ndtri(u)
    if family is Family.LOGNORMAL:
        return np.exp(params.theta + params.sigma * ndtri(u))
    return params.sigma * (-np.log(u)) ** (-params.beta)


def cdf(family: Family, params: ParameterVector, x):
    params.validate(family)
    x = np.asarray(x, dtype=float)
    if family is Family.NORMAL:
        return ndtr((x - params.theta) / params.sigma)
    if np.any(x <= 0.0):
        raise ValueError(f"{family.value} support is x > 0")
    if family is Family.LOGNORMAL:
        return ndtr((np.log(x) - params.theta) / params.sigma)
    return np.exp(-((x / params.sigma) ** (-1.0 / params.beta)))


def pdf(family: Family, params: ParameterVector, x):
    params.validate(family)
    x = np.asarray(x, dtype=float)
    if family is Family.NORMAL:
        z = (x - params.theta) / params.sigma
        return np.exp(-0.5 * z * z) / (params.sigma * math.sqrt(2.0 * math.pi))
    if np.any(x <= 0.0):
        raise ValueError(f"{family.value} support is x > 0")
    if family is Family.LOGNORMAL:
        z = (np.log(x) - params.theta) / params.sigma
        return np.exp(-0.5 * z * z) / (x * params.sigma * math.sqrt(2.0 * math.pi))
    alpha = 1.0 / params.beta
    t = (x / params.sigma) ** (-alpha)
    return (alpha / params.sigma) * (x / params.sigma) ** (-alpha - 1.0) * np.exp(-t)


def sample(family: Family, params: ParameterVector, n: int, seed) -> np.ndarray:
    """n i.i.d. draws by inverse transform from a seeded uniform stream.

    `seed` may be an int, a SeedSequence or a Generator; identical seeds
    give identical output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    params.validate(family)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = rng.random(n)
    # Keep u strictly inside (0, 1); random() can return exactly 0.
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return quantile(family, params, u)


def mle_normal(data):
    """Sample mean and the 1/n-variance standard deviation."""
    x = np.asarray(data, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two observations")
    theta = float(np.mean(x))
    sigma = float(math.sqrt(np.mean((x - theta) ** 2)))
    return theta, sigma


def _xi(beta, logx):
    """The Frechet likelihood score in beta, strictly increasing."""
    z = -logx / beta
    m = np.max(z)
    w = np.exp(z - m)
    return beta + float(np.dot(w, logx) / np.sum(w)) - float(np.mean(logx))


def mle_frechet(data):
    """Frechet MLE: beta solves xi(beta) = 0, sigma follows in closed
    form.  The root search starts from the sample coefficient of
    variation and expands a bracket before solving."""
    # Imported here so that importing the models does not load
    # scipy.optimize (about 0.1-0.3 s) for callers that never need it.
    from scipy.optimize import brentq

    x = np.asarray(data, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two observations")
    if np.any(x <= 0.0):
        raise ValueError("Frechet data must be positive")
    logx = np.log(x)
    if np.ptp(logx) == 0.0:
        # xi(beta) = beta > 0 for constant data: no root exists.
        raise EstimationError("degenerate data: all observations equal")
    mean = float(np.mean(x))
    sd = float(np.std(x))
    beta0 = sd / mean if sd > 0 and mean > 0 else 1.0
    beta0 = min(max(beta0, 1e-3), 1e3)
    lo = hi = beta0
    flo = _xi(lo, logx)
    fhi = flo
    for _ in range(200):
        if flo > 0.0:
            lo *= 0.5
            flo = _xi(lo, logx)
        elif fhi < 0.0:
            hi *= 2.0
            fhi = _xi(hi, logx)
        else:
            break
    else:
        raise EstimationError("could not bracket the Frechet likelihood root")
    if flo > 0.0 or fhi < 0.0:
        raise EstimationError("could not bracket the Frechet likelihood root")
    beta = brentq(_xi, lo, hi, args=(logx,), xtol=1e-14, rtol=8.9e-16)
    if abs(_xi(beta, logx)) > 1e-10:
        raise EstimationError("Frechet likelihood root did not converge")
    z = -logx / beta
    m = np.max(z)
    log_mean_pow = m + math.log(float(np.mean(np.exp(z - m))))
    sigma = math.exp(-beta * log_mean_pow)
    return float(beta), float(sigma)


def _gumbel_quantile(u):
    """Standard Gumbel quantile G(u) = -log(-log u): log X for the unit
    Frechet model."""
    return -np.log(-np.log(u))


def _log_of_positive(label):
    def transform(x):
        if np.any(x <= 0.0):
            raise ValueError(f"{label} data must be positive")
        return np.log(x)
    return transform


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


@dataclass(frozen=True)
class FamilySpec:
    """How one family maps onto the location-scale engine.

    Reported parameters come in `names` order, also the row order of
    estimator Jacobians: Frechet reports (scale, exp(location)), so
    `scale_first` is set and the location row carries d sigma / d
    location = sigma (`location_factor`).  `mle` fits the raw data and
    `scaled` names the parameters in data units.  The `mle` lambdas look
    the estimators up at call time, so rebinding the module-level names
    (as bench/spans.py does) reaches them.
    """

    names: Tuple[str, str]
    transform: Callable[[np.ndarray], np.ndarray]
    base_quantile: Callable
    location_scale: Callable[[ParameterVector], Tuple[float, float]]
    params: Callable[[float, float], ParameterVector]
    location_factor: Callable[[float], float]
    scale_first: bool
    mle: Callable[[np.ndarray], ParameterVector]
    s_mle: Callable[[ParameterVector], np.ndarray]
    scaled: Tuple[str, ...] = ()

    def estimates(self, p: ParameterVector) -> tuple:
        """The reported parameters of p, in `names` order."""
        return (getattr(p, self.names[0]), getattr(p, self.names[1]))


_NORMAL_MAPS = dict(
    names=("theta", "sigma"),
    base_quantile=ndtri,
    location_scale=lambda p: (p.theta, p.sigma),
    params=lambda loc, scale: ParameterVector(theta=loc, sigma=scale),
    location_factor=lambda sigma: 1.0,
    scale_first=False,
    s_mle=lambda p: np.array([[p.sigma ** 2, 0.0],
                              [0.0, p.sigma ** 2 / 2.0]]),
)

SPECS = {
    Family.NORMAL: FamilySpec(
        transform=lambda x: x,
        mle=lambda x: ParameterVector(*mle_normal(x)),
        **_NORMAL_MAPS),
    Family.LOGNORMAL: FamilySpec(
        transform=_log_of_positive("lognormal"),
        mle=lambda x: ParameterVector(*mle_normal(np.log(x))),
        **_NORMAL_MAPS),
    Family.FRECHET: FamilySpec(
        names=("beta", "sigma"),
        transform=_log_of_positive("Frechet"),
        base_quantile=_gumbel_quantile,
        location_scale=lambda p: (math.log(p.sigma), p.beta),
        params=lambda loc, scale: _frechet(scale, math.exp(loc)),
        location_factor=lambda sigma: sigma,
        scale_first=True,
        mle=lambda x: _frechet(*mle_frechet(x)),
        s_mle=_s_mle_frechet,
        scaled=("sigma",)),
}
