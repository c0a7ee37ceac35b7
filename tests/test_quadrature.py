import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from oracles import IntegrationError, integrate
from trimmoments import quadrature

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


@pytest.mark.parametrize("a, b", [(-4.0, -3.3), (-4.0, 36.7), (-1.0, 1.0),
                                  (0.2, 0.3), (-3.5, 32.0), (1e-3, 40.0)])
def test_fixed_rule_takes_one_integrand_call(a, b):
    # The package's rule: one K15 panel per piece between the knots
    # strictly inside (a, b), every node in one call, none adaptive.
    calls = []

    def f(x):
        calls.append(x)
        return np.stack([np.ones_like(x), x, x * x, np.exp(-x)])

    got = quadrature.integrate(f, a, b)
    inside = [k for k in quadrature._KNOTS if a < k < b]
    assert len(calls) == 1
    assert calls[0].shape == (15 * (1 + len(inside)),)
    assert np.all((a < calls[0]) & (calls[0] < b))
    assert got.shape == (4,)
    exact = [b - a, (b * b - a * a) / 2.0, (b ** 3 - a ** 3) / 3.0,
             math.exp(-a) - math.exp(-b)]
    assert got == pytest.approx(exact, rel=1e-13)
