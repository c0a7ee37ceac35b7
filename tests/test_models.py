import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from trimmoments.models import (
    SPECS,
    Family,
    ParameterVector,
    sample,
)
from oracles import cdf, pdf, quantile

PARAMS = {
    Family.NORMAL: ParameterVector(theta=1.5, sigma=2.0),
    Family.LOGNORMAL: ParameterVector(theta=0.3, sigma=0.8),
    Family.FRECHET: ParameterVector(sigma=2.0, beta=0.7),
}


def _phi_inv_bisect(p, tol=1e-13):
    """Independent normal quantile oracle: bisection on the erf-based CDF."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_standard_quantile_normal_anchor_values():
    standard_quantile = SPECS[Family.NORMAL].base_quantile
    assert standard_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert standard_quantile(0.975) == pytest.approx(
        1.959964, abs=1e-6)


@given(p=st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=40, deadline=None)
def test_standard_quantile_matches_bisection_oracle(p):
    assert SPECS[Family.NORMAL].base_quantile(p) == pytest.approx(
        _phi_inv_bisect(p), abs=1e-10)


def test_quantile_values():
    p = ParameterVector(sigma=1.0, beta=1.0)
    assert quantile(Family.FRECHET, p, math.exp(-1.0)) == pytest.approx(1.0)
    p = ParameterVector(theta=5.0, sigma=2.0)
    assert quantile(Family.NORMAL, p, 0.975) == pytest.approx(8.919928, abs=1e-5)
    p = ParameterVector(sigma=2.0, beta=0.5)
    assert quantile(Family.FRECHET, p, 0.5) == pytest.approx(
        2.0 * math.log(2.0) ** -0.5, abs=1e-12)
    assert quantile(Family.FRECHET, p, 0.5) == pytest.approx(2.4023, abs=1e-4)


def test_quantile_domain_errors():
    p = ParameterVector()
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            quantile(Family.NORMAL, p, u)
    with pytest.raises(ValueError):
        quantile(Family.FRECHET, ParameterVector(sigma=-1.0, beta=1.0), 0.5)
    with pytest.raises(ValueError):
        quantile(Family.FRECHET, ParameterVector(sigma=1.0), 0.5)


@pytest.mark.parametrize("family", list(Family))
def test_cdf_quantile_round_trip(family):
    params = PARAMS[family]
    u = np.arange(0.01, 1.0, 0.01)
    back = cdf(family, params, quantile(family, params, u))
    assert np.max(np.abs(back - u)) < 1e-10


def test_frechet_cdf_round_trip_anchor():
    p = ParameterVector(sigma=2.0, beta=0.5)
    assert cdf(Family.FRECHET, p, 2.4023) == pytest.approx(0.5, abs=1e-4)


def test_normal_pdf_mode():
    p = ParameterVector(theta=1.5, sigma=2.0)
    assert pdf(Family.NORMAL, p, 1.5) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0 * math.pi)), abs=1e-12)


@pytest.mark.parametrize("family", list(Family))
def test_pdf_integrates_to_one(family):
    params = PARAMS[family]
    lo = 0.0 if family is not Family.NORMAL else -np.inf
    total, _ = quad(lambda x: pdf(family, params, x), lo, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("family", list(Family))
def test_pdf_matches_cdf_derivative(family):
    params = PARAMS[family]
    xs = quantile(family, params, np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
    h = 1e-6
    for x in np.atleast_1d(xs):
        fd = (cdf(family, params, x + h) - cdf(family, params, x - h)) / (2 * h)
        assert pdf(family, params, x) == pytest.approx(fd, rel=1e-5)


def test_support_errors():
    with pytest.raises(ValueError):
        cdf(Family.FRECHET, PARAMS[Family.FRECHET], -1.0)
    with pytest.raises(ValueError):
        pdf(Family.LOGNORMAL, PARAMS[Family.LOGNORMAL], 0.0)


def test_sample_deterministic():
    p = PARAMS[Family.FRECHET]
    x1 = sample(Family.FRECHET, p, 1000, 42)
    x2 = sample(Family.FRECHET, p, 1000, 42)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, sample(Family.FRECHET, p, 1000, 43))


def test_sample_normal_mean_clt_bound():
    x = sample(Family.NORMAL, ParameterVector(), 1_000_000, 7)
    assert abs(np.mean(x)) < 4.0 / math.sqrt(1_000_000)


def test_sample_frechet_ecdf_anchor():
    p = ParameterVector(sigma=1.0, beta=0.5)
    x = sample(Family.FRECHET, p, 1_000_000, 11)
    assert np.mean(x <= 1.0) == pytest.approx(math.exp(-1.0), abs=0.002)


def test_frechet_tail_ordering():
    # Larger tail index beta gives a heavier tail: survival is larger
    # for all x at and beyond the scale.
    sigma = 2.0
    grid = np.linspace(sigma, 50.0, 200)
    s1 = 1.0 - cdf(Family.FRECHET, ParameterVector(sigma=sigma, beta=0.5), grid)
    s2 = 1.0 - cdf(Family.FRECHET, ParameterVector(sigma=sigma, beta=1.5), grid)
    assert np.all(s1 <= s2 + 1e-15)


@given(u1=st.floats(min_value=0.001, max_value=0.999),
       u2=st.floats(min_value=0.001, max_value=0.999))
@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("family", list(Family))
def test_quantile_monotone(family, u1, u2):
    params = PARAMS[family]
    lo, hi = sorted((u1, u2))
    assert quantile(family, params, lo) <= quantile(family, params, hi)


@pytest.mark.parametrize("family", list(Family))
def test_draw_transforms_its_uniforms_in_place(family):
    # Bit for bit the out-of-place loc + scale * base_quantile(clipped u),
    # in u's own buffer, the extremes 0 and 1 - 2**-53 included.
    spec, p = SPECS[family], PARAMS[family]
    loc, scale = spec.law.location_scale(p)
    u0 = np.random.default_rng(3).random((4, 50))
    u0[0, :2] = 0.0, 1.0 - 2.0 ** -53
    want = loc + scale * spec.base_quantile(np.clip(u0, 1e-300, 1 - 1e-16))
    u = u0.copy()
    y = spec.draw(p, u)
    assert y is u
    assert np.array_equal(y, want)
    # The quadrature evaluates the base quantile at floats and 0-d arrays.
    for v in (0.3, np.float64(0.3), np.array(0.3)):
        q = spec.base_quantile(v)
        assert np.ndim(q) == 0 and q == spec.base_quantile(np.array([0.3]))[0]


def _peak_blocks(block, fn, *args):
    """Peak traced memory of fn(*args) above its start, in block sizes;
    tracemalloc sees numpy's data buffers."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - start) / block.nbytes
    finally:
        tracemalloc.stop()


def test_monte_carlo_kernels_make_no_block_sized_temporaries():
    # One n = 1000 study block: the draw works in its uniforms buffer, and
    # the Frechet MLE holds the shifted data and one scratch array (with
    # a third, shrinking copy of the data once rows converge).
    u = np.random.default_rng(5).random((131, 1000))
    for family in Family:
        assert _peak_blocks(u, SPECS[family].draw, PARAMS[family],
                            u.copy()) < 0.01
    y = SPECS[Family.FRECHET].draw(PARAMS[Family.FRECHET], u)
    assert _peak_blocks(y, SPECS[Family.FRECHET].mle_rows, y) <= 3.0


def test_h_functions():
    x = np.array([1.0, math.e, math.e ** 2])
    # The moment transforms are h1 = transform, h2 = transform ** 2.
    h = SPECS[Family.FRECHET].transform
    assert np.allclose(h(x), [0.0, 1.0, 2.0])
    assert np.allclose(h(x) ** 2, [0.0, 1.0, 4.0])
    h = SPECS[Family.NORMAL].transform
    assert np.allclose(h(x), x)
    assert np.allclose(h(x) ** 2, x * x)
