"""The three families at a point, on Python floats: no numpy import.

Every family is a location-scale model y = location + scale * Z of
transformed data; its `FamilyLaw` in `LAWS` holds what an asymptotic
relative efficiency or the command line's parser reads of it, and the
one map from a fit's (location, scale) to the reported parameters;
`models` adds the data and sample side on arrays.  The error and
outcome types that the scalar path shares with the array layer,
`EstimationError` and the scale root a fit took, `Branch`, live here
too.  Every record is a `typing.NamedTuple`, equal to a plain tuple of
the same values.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple, Optional, Tuple

__all__ = [
    "EstimationError",
    "Family",
    "Branch",
    "ParameterVector",
    "FamilyLaw",
    "LAWS",
    "EULER_GAMMA",
]


class EstimationError(Exception):
    """A fit with no admissible scale candidate, an MLE (`FamilySpec.mle`)
    with no likelihood maximum, or a study past its failure limit."""


class Family(enum.Enum):
    NORMAL = "normal"
    LOGNORMAL = "lognormal"
    FRECHET = "frechet"

    # Members are singletons that compare by identity; Enum's own hash
    # is a Python-level hash of the name, paid on every lookup and every
    # cache key.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, name: str) -> "Family":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown family {name!r}") from None


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    EQUAL_TRIM = "equal-trim"

    __hash__ = object.__hash__  # identity, as for `Family`


class ParameterVector(NamedTuple):
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
        for name in LAWS[family].names:
            value = getattr(self, name)
            if value is None or not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "theta" and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


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


def _gumbel_float(u: float) -> float:
    """The standard Gumbel quantile G(u) = -log(-log u) of one float."""
    return -math.log(-math.log(u))


# Euler's constant, numpy's `euler_gamma`, and the point-free factors of
# the Frechet S_MLE, computed once.
EULER_GAMMA = 0.5772156649015329
_SIX_OVER_PI2 = 6.0 / math.pi ** 2
_GUMBEL_SCALE_INFO = (EULER_GAMMA - 1.0) ** 2 + math.pi ** 2 / 6.0


def _s_mle_frechet(p):
    """Inverse Frechet Fisher information in (beta, sigma), as rows of
    Python floats; its determinant is 6 beta^4 sigma^2 / pi^2."""
    beta, sigma, k = p.beta, p.sigma, _SIX_OVER_PI2
    off = k * ((1.0 - EULER_GAMMA) * sigma * beta ** 2)
    return ((k * beta ** 2, off),
            (off, k * ((sigma * beta) ** 2 * _GUMBEL_SCALE_INFO)))


class FamilyLaw(NamedTuple):
    """A family on the location-scale model, at a point.

    `names` are its reported parameters, in `delta_method`'s row
    order: (theta, sigma), or (beta, sigma) for Frechet.  `base` is
    the quantile of the base law of Z at one float u, with libm's logs:
    the Cephes port Phi^{-1}, bit for bit scipy's `ndtri`, or for
    Frechet the standard Gumbel G(u) = -log(-log u), since log X = log
    sigma + beta * G.  `location_scale` maps the reported parameters to
    (location, scale), for Frechet (log sigma, beta).  `s_mle` is the
    MLE's asymptotic covariance (the inverse Fisher information) as two
    rows of Python floats.  `exp_location` is the one way a report
    departs from (location, scale): Frechet reports (scale,
    exp(location)), by `reported`, `params` and `delta_method`.
    """

    names: Tuple[str, str]
    base: Callable[[float], float]
    location_scale: Callable[[ParameterVector], Tuple[float, float]]
    s_mle: Callable[[ParameterVector], Tuple[Tuple[float, float], ...]]
    exp_location: bool = False

    def location_factor(self, sigma) -> float:
        """d sigma / d location of the reported sigma: sigma where it is
        exp(location), otherwise 1."""
        return sigma if self.exp_location else 1.0

    def estimates(self, p: ParameterVector) -> tuple:
        """The reported parameters of p, in `names` order."""
        return (getattr(p, self.names[0]), getattr(p, self.names[1]))

    def reported(self, loc, scale, exp) -> tuple:
        """The reported parameters at (location, scale), in `names` order,
        sigma = exp(loc) by the given exp where `exp_location` is set."""
        return (scale, exp(loc)) if self.exp_location else (loc, scale)

    def params(self, loc: float, scale: float) -> ParameterVector:
        """`reported` of one fit with libm's exp, which may overflow."""
        return ParameterVector(
            **dict(zip(self.names, self.reported(loc, scale, math.exp))))


_NORMAL_LAW = FamilyLaw(
    names=("theta", "sigma"),
    base=_ndtri_float,
    location_scale=lambda p: (p.theta, p.sigma),
    s_mle=lambda p: ((p.sigma ** 2, 0.0), (0.0, p.sigma ** 2 / 2.0)),
)

# Normal and lognormal share one law, so caches keyed on its base (the
# segment table and the scheme records of `moments`) are shared too.
LAWS = {
    Family.NORMAL: _NORMAL_LAW,
    Family.LOGNORMAL: _NORMAL_LAW,
    Family.FRECHET: FamilyLaw(
        names=("beta", "sigma"),
        base=_gumbel_float,
        location_scale=lambda p: (math.log(p.sigma), p.beta),
        s_mle=_s_mle_frechet,
        exp_location=True),
}
