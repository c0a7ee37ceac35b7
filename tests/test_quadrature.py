import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from oracles import IntegrationError, integrate, integrate_numpy
from trimmoments import quadrature
from trimmoments.families import LAWS, Family

GAMMA = 0.57721566490153286


def test_polynomial():
    assert integrate(lambda u: u, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_half_normal_quantile_integral():
    # Antiderivative of the normal quantile is -phi(quantile(u)), so the
    # integral over (0, 0.5] equals -phi(0).
    val = integrate(lambda u: ndtri(u), 0.0, 0.5)
    assert val == pytest.approx(-1.0 / math.sqrt(2.0 * math.pi), abs=1e-9)
    assert val == pytest.approx(-0.3989423, abs=1e-7)


def test_log_neg_log_integral_is_minus_euler_gamma():
    val = integrate(lambda u: np.log(-np.log(u)), 0.0, 1.0)
    assert val == pytest.approx(-GAMMA, abs=1e-9)


def test_never_evaluates_endpoints():
    def f(u):
        u = np.asarray(u)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        return np.log(-np.log(u))

    integrate(f, 0.0, 1.0)


def test_narrow_window_at_one_stays_inside():
    # The seed shells of [1 - 1e-9, 1] shrink to 1e-15, where the outer
    # Kronrod node of the last shell rounds to 1.0 unless clamped.
    seen = []

    def f(u):
        u = np.asarray(u)
        seen.append(u.max())
        return ndtri(u) ** 2

    val = integrate(f, 1.0 - 1e-9, 1.0)
    assert math.isfinite(val) and val > 0.0
    assert max(seen) < 1.0


def test_invalid_interval():
    with pytest.raises(ValueError):
        integrate(lambda u: u, 0.5, 0.5)
    with pytest.raises(ValueError):
        integrate(lambda u: u, 0.3, 0.2)


def test_budget_exhaustion_reports_estimate():
    # An oscillation far below panel resolution exhausts the budget; the
    # error must carry the running estimate and bound.
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda u: np.sin(3e7 * u), 0.0, 1.0)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error_bound > 0.0


@given(c=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_additivity(c):
    f = ndtri
    whole = integrate(f, 0.0, 1.0)
    parts = integrate(f, 0.0, c) + integrate(f, c, 1.0)
    assert parts == pytest.approx(whole, abs=2e-10)


@given(alpha=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_linearity(alpha):
    f = lambda u: ndtri(u)
    g = lambda u: np.log(-np.log(u))
    combo = integrate(lambda u: f(u) + alpha * g(u), 0.0, 1.0)
    assert combo == pytest.approx(
        integrate(f, 0.0, 1.0) + alpha * integrate(g, 0.0, 1.0), abs=1e-9)


def _midpoint(f, a, b, n=1_000_000):
    u = a + (b - a) * (np.arange(n) + 0.5) / n
    return float(np.mean(f(u)) * (b - a))


def test_against_midpoint_oracle(rng):
    # The production integrands: powers of the normal quantile and of
    # Delta(u) = log(-log u), on random subwindows.
    integrands = [
        lambda u: ndtri(u),
        lambda u: ndtri(u) ** 2,
        lambda u: np.log(-np.log(u)),
        lambda u: np.log(-np.log(u)) ** 2,
    ]
    for _ in range(20):
        a, b = np.sort(rng.uniform(0.02, 0.98, size=2))
        if b - a < 0.05:
            b = min(a + 0.05, 0.98)
        f = integrands[rng.integers(len(integrands))]
        assert integrate(f, a, b) == pytest.approx(
            _midpoint(f, a, b), abs=1e-6)


def _exp_moment(k, a, b):
    """The integral of x^k e^-x over [a, b]: the antiderivative is
    -e^-x times the sum of k!/j! x^j over j = 0..k."""
    def anti(x):
        return -math.exp(-x) * sum(math.factorial(k) / math.factorial(j)
                                   * x ** j for j in range(k + 1))
    return anti(b) - anti(a)


@pytest.mark.parametrize("a, b", [(-4.0, -3.3), (-4.0, 36.7), (-1.0, 1.0),
                                  (0.2, 0.3), (-3.5, 32.0), (1e-3, 40.0)])
def test_fixed_rule_takes_one_integrand_call(a, b):
    # The package's rule: one K15 panel per piece between the knots
    # strictly inside (a, b), none adaptive, and one call of the density
    # on each node, a Python float, from which one loop forms all four
    # moments x^k g(x), k = 1..4.
    calls = []

    def g(x):
        calls.append(x)
        return math.exp(-x)

    got = quadrature.integrate(g, a, b)
    inside = [k for k in quadrature._KNOTS if a < k < b]
    assert len(calls) == 15 * (1 + len(inside))
    assert all(type(x) is float and a < x < b for x in calls)
    assert type(got) is tuple and [type(m) for m in got] == [float] * 4
    exact = [_exp_moment(k, a, b) for k in (1, 2, 3, 4)]
    assert got == pytest.approx(exact, rel=1e-13)


def _gumbel_density(x):
    return math.exp(-x - math.exp(-x))


def _gumbel_powers(x):
    """x^k g(x), k = 1..4, at the nodes x, as the package formed them on
    arrays: the density with libm's rounding, then the same products."""
    g = np.array([_gumbel_density(v) for v in x])
    x2 = x * x
    return x * g, x2 * g, x2 * x * g, x2 * x2 * g


def test_python_rule_matches_the_numpy_rule():
    # Every Gumbel segment between the points k/100 (k <= 30 or k >= 70)
    # and the far tails of G, from x = -4 at u = 0.  The two sums differ
    # only in their order of rounding, which is relative to the integral
    # of |x|^k g(x): the integral itself wherever x^k does not change
    # sign, that is all but the odd moments of segments across x = 0.
    # There M1 may nearly cancel (-0.0025 on [1e-12, 0.75]), so a sum's
    # own rounding is larger relative to it.
    gumbel = LAWS[Family.FRECHET].base
    points = sorted({k / 100 for k in (*range(31), *range(70, 100))}
                    | {1e-300, 1e-12, 1.0 - 1e-9, 1.0 - 2.0 ** -53})
    worst = 0.0
    for lo, hi in itertools.combinations(points, 2):
        a = -4.0 if lo == 0.0 else gumbel(lo)
        b = gumbel(hi)
        if not a < b:
            continue  # [0, 1e-300]: empty in the Gumbel variable
        got = quadrature.integrate(_gumbel_density, a, b)
        want = integrate_numpy(_gumbel_powers, a, b)
        size = integrate_numpy(lambda x: np.abs(_gumbel_powers(x)), a, b)
        worst = max(worst, *(abs(g - w) / s
                             for g, w, s in zip(got, want, size)))
    assert worst <= 1e-15
