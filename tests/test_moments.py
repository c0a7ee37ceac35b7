import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from trimmoments.models import SPECS, Family, ParameterVector, sample
from trimmoments.moments import (
    SchemeError,
    SchemeTag,
    eta_constants,
    population_moments,
    sample_trimmed_moment,
    validate_scheme,
    window_moments,
    zeta_constants,
)
from conftest import random_params, random_scheme
from oracles import c_k, gumbel_segment, kappa_k

GAMMA = 0.57721566490153286


class TestValidateScheme:
    def test_equal(self):
        s = validate_scheme(0.05, 0.05, 0.05, 0.05)
        assert s.tag is SchemeTag.EQUAL
        assert s.window(1) == (0.05, 0.95)

    def test_condition8(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        assert s.tag is SchemeTag.CONDITION8

    def test_condition12(self):
        s = validate_scheme(0.05, 0.05, 0.10, 0.00)
        assert s.tag is SchemeTag.CONDITION12

    def test_touching_windows_admitted(self):
        # a2 == 1 - b1 == 0.5: the windows share a single endpoint.
        s = validate_scheme(0.25, 0.50, 0.50, 0.25)
        assert s.tag is SchemeTag.CONDITION12

    def test_non_nested_rejected(self):
        with pytest.raises(SchemeError, match="not nested"):
            validate_scheme(0.0, 0.1, 0.05, 0.2)
        with pytest.raises(SchemeError, match="not nested"):
            validate_scheme(0.05, 0.2, 0.0, 0.1)

    def test_stated_orderings_accepted(self):
        # The rejection states the two nested orderings, and every grid
        # scheme that follows one of them, with proportions summing below
        # one and windows that overlap, is accepted.
        with pytest.raises(SchemeError, match="need a2 <= a1 and b1 <= b2, "
                                              "or a1 <= a2 and b2 <= b1"):
            validate_scheme(0.05, 0.05, 0.15, 0.15)
        grid = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75)
        for a1, b1, a2, b2 in itertools.product(grid, repeat=4):
            if ((a2 <= a1 and b1 <= b2 or a1 <= a2 and b2 <= b1)
                    and a1 + b1 < 1.0 and a2 + b2 < 1.0
                    and a1 <= 1.0 - b2 and a2 <= 1.0 - b1):
                validate_scheme(a1, b1, a2, b2)

    def test_mass_one_rejected(self):
        with pytest.raises(SchemeError):
            validate_scheme(0.5, 0.5, 0.1, 0.1)

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemeError):
            validate_scheme(-0.1, 0.0, 0.0, 0.0)
        with pytest.raises(SchemeError):
            validate_scheme(0.0, 1.0, 0.0, 0.0)

    @given(vals=st.lists(st.floats(min_value=0.0, max_value=0.99),
                         min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_total_classification(self, vals):
        # Every quadruple either validates with a tag or raises SchemeError.
        try:
            s = validate_scheme(*vals)
        except SchemeError:
            return
        assert s.tag in (SchemeTag.EQUAL, SchemeTag.CONDITION8,
                         SchemeTag.CONDITION12)


DATA10 = [-15, -13, -8, -4, -2, 3, 5, 7, 9, 12]


class TestSampleTrimmedMoment:
    def test_symmetric_trim_mean(self):
        # keeps {-8, -4, -2, 3, 5, 7}
        val = sample_trimmed_moment(DATA10, 0.2, 0.2, lambda x: x)
        assert val == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_upper_trim_squares(self):
        # keeps the six lowest order statistics {-15,-13,-8,-4,-2,3}
        val = sample_trimmed_moment(DATA10, 0.0, 0.4, lambda x: x * x)
        assert val == pytest.approx(487.0 / 6.0, abs=1e-12)

    def test_no_trim_is_mean(self):
        val = sample_trimmed_moment(DATA10, 0.0, 0.0, lambda x: x)
        assert val == pytest.approx(np.mean(DATA10))

    def test_empty_data(self):
        with pytest.raises(ValueError):
            sample_trimmed_moment([], 0.0, 0.0, lambda x: x)

    def test_all_trimmed(self):
        with pytest.raises(SchemeError):
            sample_trimmed_moment([1.0, 2.0], 0.5, 0.5, lambda x: x)

    @given(data=st.lists(st.floats(min_value=-100, max_value=100),
                         min_size=3, max_size=40),
           a=st.floats(min_value=0.0, max_value=0.3),
           b=st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, data, a, b):
        shuffled = list(data)
        np.random.default_rng(0).shuffle(shuffled)
        assert sample_trimmed_moment(data, a, b, lambda x: x) == \
            sample_trimmed_moment(shuffled, a, b, lambda x: x)

    @given(n=st.integers(min_value=1, max_value=2000), data=st.data())
    @example(n=100, data=None)
    @settings(max_examples=200, deadline=None)
    def test_integral_trim_counts_are_exact(self, n, data):
        # For integral k = n*a the trim discards exactly k observations,
        # also where n * (k / n) rounds to just below k (0.29 * 100).
        if data is None:
            k_lo, k_hi = 29, 57
        else:
            k_lo = data.draw(st.integers(min_value=0, max_value=n - 1))
            k_hi = data.draw(st.integers(min_value=0, max_value=n - 1 - k_lo))
        x = np.arange(n, dtype=float)
        kept = sample_trimmed_moment(x, k_lo / n, k_hi / n,
                                     lambda v: np.full(1, v.size))
        assert kept == n - k_lo - k_hi
        low = sample_trimmed_moment(x, k_lo / n, k_hi / n,
                                    lambda v: np.full(1, v[0]))
        assert low == k_lo

    def test_breakdown_exactness(self):
        # With at least one upper observation trimmed for both moments,
        # inflating the maximum cannot change either trimmed moment.
        rng = np.random.default_rng(5)
        x = rng.normal(size=60)
        y = x.copy()
        y[np.argmax(y)] *= 1e6
        for a, b in ((0.0, 0.05), (0.1, 0.1)):
            for h in (lambda v: v, lambda v: v * v):
                assert sample_trimmed_moment(x, a, b, h) == \
                    sample_trimmed_moment(y, a, b, h)


class TestConstants:
    def test_c1_symmetric_window_is_zero(self):
        for a in (0.0, 0.1, 0.25):
            assert c_k(Family.NORMAL, a, 1.0 - a, 1) == pytest.approx(0.0, abs=1e-10)

    def test_c2_anchor(self):
        assert c_k(Family.NORMAL, 0.02, 0.75, 2) == pytest.approx(0.5702, abs=1e-3)

    def test_c1_squared_anchors(self):
        assert c_k(Family.NORMAL, 0.05, 0.99, 1) ** 2 == pytest.approx(
            0.0066, abs=1e-3)
        assert c_k(Family.NORMAL, 0.50, 0.99, 1) ** 2 == pytest.approx(
            0.5773, abs=1e-3)

    def test_kappa1_full_window_is_minus_gamma(self):
        assert kappa_k(0.0, 1.0, 1) == pytest.approx(-GAMMA, abs=1e-9)

    def test_kappa1_nested_window_monotonicity(self):
        # Delta is decreasing, so the right-shifted window has the
        # smaller average.
        assert kappa_k(0.05, 0.95, 1) <= kappa_k(0.0, 0.90, 1)

    def test_kappa2_against_midpoint_oracle(self):
        n = 1_000_000
        u = 0.02 + 0.96 * (np.arange(n) + 0.5) / n
        oracle = float(np.mean(np.log(-np.log(u)) ** 2))
        val = kappa_k(0.02, 0.98, 2)
        assert val > 0.0
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_c_k_rejects_frechet_and_bad_windows(self):
        with pytest.raises(ValueError):
            c_k(Family.FRECHET, 0.0, 1.0, 1)
        with pytest.raises(SchemeError):
            c_k(Family.NORMAL, 0.5, 0.5, 1)
        with pytest.raises(ValueError):
            kappa_k(0.0, 1.0, 5)


ZETA3 = 1.2020569031595943


def _phi(z):
    """Standard normal density; 0 at z = +-inf."""
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _z_phi(z):
    """z * phi(z), which vanishes at z = +-inf."""
    return 0.0 if math.isinf(z) else z * _phi(z)


def _poly_phi(z, f):
    """f(z) * phi(z) for a polynomial f, which vanishes at z = +-inf."""
    return 0.0 if math.isinf(z) else f(z) * _phi(z)


class TestSegmentTable:
    """Integrals of base^k from `window_moments` against closed forms:
    the normal base's, themselves closed forms, to 1e-15 in each power,
    the Gumbel base's, quadratures in the Gumbel variable, to 1e-13 on
    (0, 1) and to 1e-12 of a 30-digit reference on every segment."""

    WINDOWS = [(0.1, 0.9), (0.02, 0.75), (0.3, 0.31), (0.0, 0.05),
               (0.0, 0.5), (0.95, 1.0), (0.4, 1.0), (0.0, 1.0)]

    @pytest.mark.parametrize("a, b", WINDOWS)
    def test_normal_first_and_second_powers(self, a, b):
        moment = window_moments(SPECS[Family.NORMAL].base_quantile, a, b)
        za, zb = ndtri(a), ndtri(b)
        assert moment(a, b, 1) == pytest.approx(_phi(za) - _phi(zb),
                                                rel=0.0, abs=1e-15)
        assert moment(a, b, 2) == pytest.approx(
            (b - a) + _z_phi(za) - _z_phi(zb), rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("a, b", WINDOWS)
    def test_normal_third_and_fourth_powers(self, a, b):
        # z^3 phi = -d[(z^2 + 2) phi] and z^4 phi = 3 phi - d[(z^3 + 3z) phi].
        moment = window_moments(SPECS[Family.NORMAL].base_quantile, a, b)
        za, zb = ndtri(a), ndtri(b)

        def cubic(z):
            return z ** 3 + 3.0 * z

        def square(z):
            return z * z + 2.0

        assert moment(a, b, 3) == pytest.approx(
            _poly_phi(za, square) - _poly_phi(zb, square), rel=0.0, abs=1e-15)
        assert moment(a, b, 4) == pytest.approx(
            3.0 * (b - a) + _poly_phi(za, cubic) - _poly_phi(zb, cubic),
            rel=0.0, abs=1e-15)

    def test_normal_moments_on_the_unit_interval(self):
        moment = window_moments(SPECS[Family.NORMAL].base_quantile, 0.0, 1.0)
        for k, expected in zip((1, 2, 3, 4), (0.0, 1.0, 0.0, 3.0)):
            assert moment(0.0, 1.0, k) == pytest.approx(expected, rel=0.0,
                                                        abs=1e-15)

    def test_gumbel_moments_on_the_unit_interval(self):
        g, p2 = GAMMA, math.pi ** 2
        expected = (g, g * g + p2 / 6.0,
                    g ** 3 + g * p2 / 2.0 + 2.0 * ZETA3,
                    g ** 4 + g * g * p2 + 8.0 * g * ZETA3
                    + 3.0 * p2 * p2 / 20.0)
        moment = window_moments(SPECS[Family.FRECHET].base_quantile, 0.0, 1.0)
        for k, value in zip((1, 2, 3, 4), expected):
            assert moment(0.0, 1.0, k) == pytest.approx(value, rel=0.0,
                                                        abs=1e-13)

    @pytest.mark.parametrize("lo, hi", [
        (0.05, 0.7), (0.1, 0.9), (0.3, 0.31), (0.25, 0.8), (0.3, 0.9),
        (0.0, 0.05), (0.0, 0.5), (0.0, 0.9), (0.0, 1e-30),
        (0.95, 1.0), (0.4, 1.0), (0.1, 1.0), (0.0, 1.0),
        (1e-300, 0.3), (0.99, 1.0 - 2.0 ** -53), (1.0 - 1e-9, 1.0)])
    def test_gumbel_segments_against_a_30_digit_reference(self, lo, hi):
        # Lattice segments, segments from 0 and to 1 (the complete
        # moments less [0, lo]), and the far tails of G.
        moment = window_moments(SPECS[Family.FRECHET].base_quantile, lo, hi)
        for k, value in zip((1, 2, 3, 4), gumbel_segment(lo, hi)):
            assert moment(lo, hi, k) == pytest.approx(value, rel=0.0,
                                                      abs=1e-12)

    def test_window_is_the_sum_of_its_segments(self):
        base = SPECS[Family.FRECHET].base_quantile
        points = (0.0, 0.05, 0.9, 1.0)
        moment = window_moments(base, *points)
        for k in (1, 2, 3, 4):
            parts = [window_moments(base, lo, hi)(lo, hi, k)
                     for lo, hi in zip(points, points[1:])]
            assert moment(0.0, 1.0, k) == sum(parts)
            assert moment(0.05, 1.0, k) == parts[1] + parts[2]
            assert moment(0.05, 0.05, k) == 0.0


class TestEtaConstants:
    def test_equal_scheme_eta_r_is_one(self):
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        con = eta_constants(Family.NORMAL, s)
        assert con.eta_r == pytest.approx(1.0, abs=1e-12)
        con = zeta_constants(s)
        assert con.eta_r == pytest.approx(1.0, abs=1e-12)

    def test_eta_positive(self, rng):
        for _ in range(10):
            s = random_scheme(rng)
            assert eta_constants(Family.NORMAL, s).eta_12 > 0.0
            assert zeta_constants(s).eta_12 > 0.0

    def test_note_scheme_eta_r_t1_squared(self):
        s = validate_scheme(0.50, 0.01, 0.02, 0.25)
        params = ParameterVector(theta=5.0, sigma=2.0)
        t1, t2 = population_moments(Family.NORMAL, params, s)
        con = eta_constants(Family.NORMAL, s)
        assert t2 == pytest.approx(19.9010, abs=1e-3)
        assert t1 * t1 == pytest.approx(42.5046, abs=1e-3)
        assert con.eta_r * t1 * t1 == pytest.approx(10.8001, abs=1e-3)


class TestPopulationMoments:
    def test_symmetric_window_t1_is_theta(self):
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        t1, _ = population_moments(
            Family.NORMAL, ParameterVector(theta=0.0, sigma=1.0), s)
        assert t1 == pytest.approx(0.0, abs=1e-10)

    def test_discriminant_nonnegative(self, rng):
        for _ in range(15):
            s = random_scheme(rng, lo=0.0)
            for family in (Family.NORMAL, Family.FRECHET):
                params = random_params(rng, family)
                con = (zeta_constants(s) if family is Family.FRECHET
                       else eta_constants(family, s))
                t1, t2 = population_moments(family, params, s)
                assert t2 - con.eta_r * t1 * t1 >= -1e-10

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.FRECHET])
    def test_law_of_large_numbers(self, family):
        params = (ParameterVector(sigma=2.0, beta=0.7)
                  if family is Family.FRECHET
                  else ParameterVector(theta=0.1, sigma=1.0))
        h1 = SPECS[family].transform
        h2 = lambda v: h1(v) ** 2
        x = sample(family, params, 100_000, 99)
        for s in (validate_scheme(0.05, 0.05, 0.0, 0.10),
                  validate_scheme(0.10, 0.10, 0.20, 0.0),
                  validate_scheme(0.0, 0.0, 0.0, 0.0)):
            t1, t2 = population_moments(family, params, s)
            t1_hat = sample_trimmed_moment(x, s.a1, s.b1, h1)
            t2_hat = sample_trimmed_moment(x, s.a2, s.b2, h2)
            assert abs(t1_hat - t1) <= 0.01 * (1.0 + abs(t1))
            assert abs(t2_hat - t2) <= 0.01 * (1.0 + abs(t2))
