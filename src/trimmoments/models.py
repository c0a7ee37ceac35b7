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

The transformed quantile, the log-density and sampling are written
once from the spec: the base law of Z (normal or standard Gumbel), the
transform, its inverse and its log-Jacobian.  Phi^{-1} is a pure-Python
port of the Cephes `ndtri` that scipy's is, bit for bit (`_ndtri`); only
the Monte Carlo draw, a whole block of uniforms at once, forwards to
scipy's, imported at its first call.  Importing the package, `fit`,
`are` and `gof` leave scipy unloaded; with the normal segment moments
in closed form (`moments`), they read Phi^{-1} at a few dozen points at
most.  Off the draw, every log reaching the 17 printed digits (the Gumbel
quantile, the log transform of the data) is libm's `math.log`, whose
rounding does not depend on the host's SIMD extensions.

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

__all__ = [
    "Family",
    "ParameterVector",
    "FamilySpec",
    "SPECS",
    "EstimationError",
    "transformed_quantile",
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

    # Members are singletons that compare by identity; Enum's own hash
    # is a Python-level hash of the name, paid on every SPECS lookup and
    # every cache key.
    __hash__ = object.__hash__

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
    # Every block-sized step writes into two scratch arrays, whose
    # leading rows hold the rows still iterated.
    w, wd = np.empty_like(d), np.empty_like(d)
    np.subtract(d, hi[:, None], out=w)
    sd = np.sqrt(np.square(w, out=w).mean(axis=1))
    b = np.minimum(math.sqrt(6.0) / math.pi * sd, hi)
    last = np.zeros(rows.size, dtype=bool)
    for _ in range(_MLE_MAX_ITER):
        if rows.size == 0:
            break
        e, ed = w[:rows.size], wd[:rows.size]
        np.exp(np.divide(d, -b[:, None], out=e), out=e)
        s0 = e.sum(axis=1)
        m1 = np.multiply(e, d, out=ed).sum(axis=1) / s0
        xi = b + m1 - dbar[rows]
        good = last & (np.abs(xi) <= _MLE_RESIDUAL)
        beta[rows[good]] = b[good]
        loc[rows[good]] = lmin[rows[good]] - b[good] * np.log(s0[good] / n)
        m2 = np.multiply(ed, d, out=ed).sum(axis=1) / s0
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
    SIMD log and exp may round differently, by host); a float or a 0-d
    array gives a numpy float64, as a ufunc does."""
    each = np.frompyfunc(f, 1, 1)
    return lambda u: np.asarray(each(u), dtype=float)[()]


_log = _libm(math.log)
_gumbel_libm = _libm(lambda v: -math.log(-math.log(v)))


def _gumbel_quantile(u, out=None):
    """Standard Gumbel quantile G(u) = -log(-log u): log X for the unit
    Frechet model, written into `out` when given (a ufunc's `out`).

    Without `out` (segment ends, breakpoints, `gof`'s quantiles) each
    log is libm's; the draw's block keeps numpy's.
    """
    if out is None:
        return _gumbel_libm(u)
    return np.negative(np.log(np.negative(np.log(u, out=out), out=out),
                              out=out), out=out)


# Cephes ndtri (Moshier): z = Phi^{-1}(y) is a rational function of y - 1/2
# where |y - 1/2| <= 1/2 - exp(-2), and elsewhere, with x = sqrt(-2 log y)
# for the tail y, x - log(x) / x less a rational function of 1 / x (one for
# x < 8, one beyond).  Coefficients highest power first; Q has a leading 1.
_S2PI = 2.50662827463100050242
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _ratio(x, p, q):
    """x * p(x) / q(x), each polynomial by Horner's rule, q monic: Cephes
    x * polevl / p1evl, rounded in that order."""
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _ndtri_float(y: float) -> float:
    """Phi^{-1}(y) of one float, as Cephes computes it."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * _ratio(y2, _P0, _Q0)) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    tail = _ratio(z, *((_P1, _Q1) if x < 8.0 else (_P2, _Q2)))
    x = x - math.log(x) / x - tail
    return x if upper else -x


_ndtri_libm = _libm(_ndtri_float)
_scipy_ndtri = None


def _ndtri(u, out=None):
    """Standard normal quantile Phi^{-1}(u), bit for bit scipy.special.ndtri.

    Without `out` (at most a few dozen points: breakpoints, `gof`'s
    quantiles) it is the Cephes port, about 1.5 us a point.  With `out`,
    the draw's whole block of uniforms, it forwards to scipy's ufunc,
    imported on the first such call.  This one function stays the normal
    families' base_quantile, so caches keyed on it never split.
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


# The point-free factors of the Frechet S_MLE, computed once.
_SIX_OVER_PI2 = 6.0 / math.pi ** 2
_GUMBEL_SCALE_INFO = (np.euler_gamma - 1.0) ** 2 + math.pi ** 2 / 6.0


def _s_mle_frechet(p):
    """Inverse Frechet Fisher information in (beta, sigma), as rows of
    Python floats; its determinant is 6 beta^4 sigma^2 / pi^2."""
    beta, sigma, k = p.beta, p.sigma, _SIX_OVER_PI2
    off = k * ((1.0 - np.euler_gamma) * sigma * beta ** 2)
    return ((k * beta ** 2, off),
            (off, k * ((sigma * beta) ** 2 * _GUMBEL_SCALE_INFO)))


# math.exp, also elementwise over arrays: np.exp may round differently, and
# each row of a batch fit must equal the fit of that sample alone.
_exp = np.frompyfunc(math.exp, 1, 1)


@dataclass(frozen=True)
class FamilySpec:
    """How one family maps onto the location-scale engine.

    The data y = transform(x) (x = inverse(y), with log |dy/dx| =
    log_jacobian(y)) follow y = loc + scale * Z, where Z has the base
    law given by `base_quantile` (which, like a ufunc, takes `out=`) and
    `base_logpdf`; every distribution function of the family is derived
    from these.
    Reported parameters come in `names` order, also the row order of
    estimator Jacobians: Frechet reports (scale, exp(location)), so
    `scale_first` is set and the location row carries d sigma / d
    location = sigma (`location_factor`).  `params` takes floats or
    arrays.  `mle_rows` fits each row of transformed data (R, n), as
    (location, scale) arrays that are NaN where no estimate exists,
    `s_mle` gives the MLE's asymptotic covariance (the inverse Fisher
    information) as two rows of Python floats, and `scaled` names the
    parameters in data units.
    """

    names: Tuple[str, str]
    transform: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    log_jacobian: Callable[[np.ndarray], np.ndarray]
    base_quantile: Callable
    base_logpdf: Callable
    location_scale: Callable[[ParameterVector], Tuple[float, float]]
    params: Callable[[float, float], ParameterVector]
    location_factor: Callable[[float], float]
    scale_first: bool
    mle_rows: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    s_mle: Callable[[ParameterVector], Tuple[Tuple[float, float], ...]]
    scaled: Tuple[str, ...] = ()

    def estimates(self, p: ParameterVector) -> tuple:
        """The reported parameters of p, in `names` order."""
        return (getattr(p, self.names[0]), getattr(p, self.names[1]))

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
        loc, scale = self.location_scale(p)
        z = self.base_quantile(np.clip(u, 1e-300, 1.0 - 1e-16, out=u), out=u)
        return np.add(np.multiply(z, scale, out=z), loc, out=z)


_NORMAL_MAPS = dict(
    names=("theta", "sigma"),
    base_quantile=_ndtri,
    base_logpdf=lambda z: -0.5 * (z * z + math.log(2.0 * math.pi)),
    location_scale=lambda p: (p.theta, p.sigma),
    params=lambda loc, scale: ParameterVector(theta=loc, sigma=scale),
    location_factor=lambda sigma: 1.0,
    scale_first=False,
    mle_rows=_normal_rows,
    s_mle=lambda p: ((p.sigma ** 2, 0.0), (0.0, p.sigma ** 2 / 2.0)),
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
        names=("beta", "sigma"),
        **_log_data("Frechet"),
        base_quantile=_gumbel_quantile,
        base_logpdf=lambda z: -z - np.exp(-z),
        location_scale=lambda p: (math.log(p.sigma), p.beta),
        params=lambda loc, scale: ParameterVector(sigma=_exp(loc),
                                                  beta=scale),
        location_factor=lambda sigma: sigma,
        scale_first=True,
        mle_rows=_frechet_rows,
        s_mle=_s_mle_frechet,
        scaled=("sigma",)),
}
