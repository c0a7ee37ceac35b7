"""The asymptotic theory checked against sampling.

The SEs and covariances `fit` prints rest on `delta_method`'s S_T, and
`are` on det S_T.  Here R samples of size n are drawn and fitted through
the kernels `fit` and `run_study` use (`FamilySpec.draw`, `mle_rows`,
`row_moments`, `solve_rows`), and the spread of the reported estimates
is compared with S_T / n, built at the population moments on the true
branch, and their finite RE with the ARE.

The bound is the Monte Carlo SE.  Under normal sampling a covariance
entry, divided by the product of the two asymptotic SDs, has SE
sqrt((1 + rho^2) / R); log RE has SE 1 / sqrt(R) (var log det of a
2 x 2 cross-moment matrix is about 4 / R, and RE goes as det^(-1/2)).
Each of the 4 comparisons of a case (3 covariance entries and the RE)
must lie within Z of these SEs, where Z is the two-sided normal
quantile of a family-wise false-alarm rate FAMILY_WISE_RATE split
(Bonferroni) over every comparison of every case: 1e-3 over 48, Z =
4.26.

n = 400 is asymptotic only where the population scale discriminant is
not small: at disc / T2 of 1e-3 the sampled variances are up to 5 times
below the asymptotic ones.  Every case here has
disc / T2 >= MIN_CONDITIONING.
"""

import functools
import math
from statistics import NormalDist

import numpy as np
import pytest

from trimmoments.asymptotics import are, delta_method
from trimmoments.estimators import (FitResult, candidate_scales, row_moments,
                                    solve_rows)
from trimmoments.families import LAWS, Branch
from trimmoments.models import SPECS, Family, ParameterVector
from trimmoments.moments import (SchemeTag, eta_constants, population_moments,
                                 validate_scheme)
from trimmoments.simulation import finite_re

R, N, SEED = 4000, 400, 15
FAMILY_WISE_RATE = 1e-3
MIN_CONDITIONING = 1e-2

EQUAL, COND8, COND12 = ((0.1, 0.1, 0.1, 0.1), (0.05, 0.05, 0.0, 0.1),
                        (0.05, 0.05, 0.1, 0.0))
# (family, parameters, [(scheme, the population root's branch)]); the
# schemes of one parameter point are fitted to the same samples.  The
# last two points are Frechet cases whose true root is the minus one.
POINTS = [
    (Family.NORMAL, ParameterVector(theta=0.1, sigma=5.0),
     [(EQUAL, Branch.EQUAL_TRIM), (COND8, Branch.PLUS),
      (COND12, Branch.PLUS)]),
    (Family.LOGNORMAL, ParameterVector(theta=1.0, sigma=0.8),
     [(EQUAL, Branch.EQUAL_TRIM), (COND8, Branch.PLUS),
      (COND12, Branch.PLUS)]),
    (Family.FRECHET, ParameterVector(sigma=2.0, beta=5.0),
     [(EQUAL, Branch.EQUAL_TRIM), (COND8, Branch.PLUS),
      (COND12, Branch.PLUS)]),
    (Family.FRECHET, ParameterVector(sigma=4.0, beta=0.5),
     [((0.3, 0.0, 0.3, 0.3), Branch.MINUS),
      ((0.3, 0.0, 0.1, 0.3), Branch.MINUS)]),
    (Family.FRECHET, ParameterVector(sigma=2.0, beta=0.5),
     [((0.3, 0.0, 0.2, 0.3), Branch.MINUS)]),
]
COMPARISONS = 4 * sum(len(cases) for *_, cases in POINTS)
Z = NormalDist().inv_cdf(1.0 - FAMILY_WISE_RATE / (2 * COMPARISONS))


def _theory(family, params, scheme):
    """(disc / T2, the true branch, S_T / n) at the population moments."""
    c = eta_constants(family, scheme)
    t1, t2 = population_moments(family, params, scheme)
    pair = candidate_scales(t1, t2, c)
    scale = LAWS[family].location_scale(params)[1]
    branch = (Branch.EQUAL_TRIM if scheme.tag is SchemeTag.EQUAL
              else Branch.MINUS if abs(pair.minus - scale)
              < abs(pair.plus - scale) else Branch.PLUS)
    fit = FitResult(family, scheme, params, branch, t1, t2, N, False)
    return pair.discriminant / t2, branch, delta_method(fit)[0] / N


@functools.lru_cache(maxsize=None)
def _estimates(index):
    """Each scheme's reported estimates (R, 2) of the R samples drawn at
    parameter point index, in the order of its cases."""
    family, params, cases = POINTS[index]
    schemes = [validate_scheme(*q) for q, _ in cases]
    spec = SPECS[family]
    y = spec.draw(params, np.random.default_rng((SEED, index)).random((R, N)))
    mle = spec.mle_rows(y)
    y.sort(axis=1)
    return [np.transpose(spec.law.estimates(spec.params(loc, scale)))
            for loc, scale, *_ in solve_rows(*row_moments(y, y * y, schemes),
                                             family, schemes,
                                             lambda: mle[1])]


# At beta = 5 (log-data spread 5 Gumbel units) the location's sampled SD
# at n = 400 is about 0.28, and sigma = exp(location) is not yet linear
# over it: sigma's sampled variance is 11-13% above S_T's (z 4.9 to 6.0)
# and the RE below the ARE (z -3.9 to -5.3), while log sigma's variance
# matches within 5% and the excess is gone at n = 4000.
EXP_LOCATION_NONLINEAR = pytest.mark.xfail(
    strict=True, reason="n = 400 is not asymptotic for a Frechet sigma "
    "= exp(location) at beta = 5")
CASES = [pytest.param(index, k, id=f"{family.value}{index}-{q}",
                      marks=[EXP_LOCATION_NONLINEAR] * (params.beta == 5.0))
         for index, (family, params, cases) in enumerate(POINTS)
         for k, (q, _) in enumerate(cases)]


@pytest.mark.parametrize("index, k", CASES)
def test_sampled_spread_matches_delta_method_and_are(index, k):
    family, params, cases = POINTS[index]
    q, want = cases[k]
    scheme = validate_scheme(*q)
    est = _estimates(index)[k]
    conditioning, branch, theory = _theory(family, params, scheme)
    assert conditioning >= MIN_CONDITIONING and branch is want
    assert np.isfinite(est).all(), "a sample failed to fit"
    sd = np.sqrt(np.diag(theory))
    rho = theory / np.outer(sd, sd)
    se = np.sqrt((1.0 + rho * rho) / (R - 1))
    z = (np.cov(est, rowvar=False) - theory) / np.outer(sd, sd) / se
    assert np.abs(z).max() <= Z, f"covariance z = {z.tolist()}"
    z_re = math.log(finite_re(family, params, est, N)
                    / are(family, params, scheme).are) * math.sqrt(R)
    assert abs(z_re) <= Z, f"RE z = {z_re}"
