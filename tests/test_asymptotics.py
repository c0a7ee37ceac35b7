import functools
import math
import sys

import numpy as np
import pytest

from trimmoments import asymptotics, moments
from trimmoments.asymptotics import (
    SingularityError,
    are,
    breakdown_points,
    delta_method,
    jacobian_at_moments,
    s_mle,
    sigma_T,
)
from trimmoments.estimators import (
    Branch,
    fit,
    fit_frechet,
    fit_location_scale,
)
from trimmoments.families import LAWS
from trimmoments.gof import load_dataset
from trimmoments.models import Family, ParameterVector, sample
from trimmoments.moments import (
    SchemeError,
    eta_constants,
    population_moments,
    validate_scheme,
    zeta_constants,
)
from trimmoments.quadrature import integrate
from conftest import clear_caches, random_params, random_scheme
from oracles import (
    are_reference,
    c_k,
    correlation_gap,
    delta_covariance,
    i_integrals,
    jacobian_location_scale,
    kernel,
    lambda_entries,
    plus_sigma,
    psi_entries,
    v_entry,
    v_entry_bruteforce,
)


_EVALUATE_SEGMENT = moments._segment.__wrapped__


def _count_segments(monkeypatch):
    """The (lo, hi) of every segment-table entry evaluated from here on,
    for either base: `moments._segment` behind a fresh counting cache."""
    segments = []

    @functools.lru_cache(maxsize=None)
    def counted(base, lo, hi):
        segments.append((lo, hi))
        return _EVALUATE_SEGMENT(base, lo, hi)

    monkeypatch.setattr(moments, "_segment", counted)
    return segments


class TestKernel:
    def test_values(self):
        assert kernel(0.5, 0.5) == pytest.approx(0.25)
        for v in np.linspace(0.0, 1.0, 11):
            assert kernel(0.0, v) == pytest.approx(0.0)

    def test_symmetry_grid(self):
        g = np.linspace(0.0, 1.0, 10)
        w, v = np.meshgrid(g, g)
        assert np.allclose(kernel(w, v), kernel(v, w))


class TestIIntegrals:
    def test_zero_width(self):
        assert i_integrals(lambda u: 1.0 / u, 0.3, 0.3) == (0.0, 0.0)

    def test_constant(self):
        i, _ = i_integrals(lambda u: np.ones_like(u), 0.2, 0.7)
        assert i == pytest.approx(0.0, abs=1e-12)

    def test_linear(self):
        a, b = 0.2, 0.7
        i, _ = i_integrals(lambda u: np.asarray(u), a, b)
        assert i == pytest.approx((b * b - a * a) / 2.0, abs=1e-10)


class TestVEntryOracle:
    def test_random_schemes_match_bruteforce(self, rng):
        for _ in range(6):
            s = random_scheme(rng)
            for family in (Family.NORMAL, Family.FRECHET):
                params = random_params(rng, family)
                for (i, j) in ((1, 1), (1, 2), (2, 2)):
                    closed = v_entry(family, params, i, j, s)
                    brute = v_entry_bruteforce(family, params, i, j, s,
                                               grid_n=800)
                    assert closed == pytest.approx(
                        brute, rel=1e-3, abs=1e-9), (family, i, j, s)

    def test_condition12_and_touching_windows(self):
        params = ParameterVector(theta=1.0, sigma=2.0)
        for s in (validate_scheme(0.05, 0.05, 0.10, 0.00),
                  validate_scheme(0.25, 0.50, 0.50, 0.25)):
            for (i, j) in ((1, 1), (1, 2), (2, 2)):
                closed = v_entry(Family.NORMAL, params, i, j, s)
                brute = v_entry_bruteforce(Family.NORMAL, params, i, j, s,
                                           grid_n=1500)
                assert closed == pytest.approx(brute, rel=2e-3, abs=1e-9)

    def test_zero_trim_windows_match_bruteforce_loosely(self):
        # Windows touching u = 0 or u = 1 hit the quantile singularity;
        # the midpoint oracle converges slowly there, so the comparison
        # runs at a tolerance matched to the oracle's own convergence.
        params = ParameterVector(theta=0.5, sigma=1.5)
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        for (i, j) in ((1, 1), (1, 2), (2, 2)):
            closed = v_entry(Family.NORMAL, params, i, j, s)
            brute = v_entry_bruteforce(Family.NORMAL, params, i, j, s,
                                       grid_n=4000)
            assert closed == pytest.approx(brute, rel=5e-3)

    def test_symmetric_in_indices_for_equal_windows(self):
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        params = ParameterVector(theta=0.7, sigma=1.3)
        assert v_entry(Family.NORMAL, params, 1, 2, s) == pytest.approx(
            v_entry(Family.NORMAL, params, 2, 1, s), rel=1e-10)

    def test_bruteforce_refinement_converges(self):
        s = validate_scheme(0.1, 0.1, 0.05, 0.15)
        params = ParameterVector(theta=1.0, sigma=2.0)
        # The kernel's diagonal kink makes the midpoint error constant
        # oscillate between neighbouring grids, so convergence is
        # checked across 4x refinements.
        vals = [v_entry_bruteforce(Family.NORMAL, params, 1, 2, s, grid_n=g)
                for g in (200, 800, 3200)]
        target = v_entry(Family.NORMAL, params, 1, 2, s)
        errs = [abs(v - target) for v in vals]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.FRECHET])
    def test_sigma_t_is_the_closed_form_on_callables(self, rng, family):
        # sigma_T reads the segment table and the base at the
        # breakpoints; the oracle integrates each H on its own.
        schemes = [random_scheme(rng) for _ in range(4)] + [
            validate_scheme(*quad) for quad in (
                (0.0, 0.0, 0.0, 0.0), (0.05, 0.05, 0.00, 0.10),
                (0.05, 0.05, 0.10, 0.00), (0.25, 0.50, 0.50, 0.25))]
        for s in schemes:
            params = random_params(rng, family)
            st = sigma_T(family, params, s)
            for i, j in ((1, 1), (1, 2), (2, 2)):
                gamma = 1.0 / ((1.0 - s.a1 - s.b1) if i == 1
                               else (1.0 - s.a2 - s.b2))
                gamma /= (1.0 - s.a1 - s.b1) if j == 1 else (1.0 - s.a2 - s.b2)
                assert st[i - 1, j - 1] == pytest.approx(
                    gamma * v_entry(family, params, i, j, s),
                    rel=1e-8, abs=1e-10), (s, i, j)

    def test_bruteforce_rejects_small_grid(self):
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError):
            v_entry_bruteforce(Family.NORMAL, ParameterVector(), 1, 1, s,
                               grid_n=100)


def _extract_lambda_from_sigma_t(scheme, theta_values, sigma=1.0):
    """Recover the six Lambda entries from sigma_T evaluated at several
    parameter points; used to prove parameter-independence and to build
    an independent oracle from the brute-force double integral."""
    out = {}
    s0 = sigma_T(Family.NORMAL, ParameterVector(theta=0.0, sigma=sigma),
                 scheme)
    sp = sigma_T(Family.NORMAL,
                 ParameterVector(theta=theta_values[0], sigma=sigma), scheme)
    t = theta_values[0]
    out["111"] = s0[0, 0] / sigma ** 2
    out["122"] = s0[0, 1] / (2.0 * sigma ** 3)
    out["223"] = s0[1, 1] / (4.0 * sigma ** 4)
    out["121"] = (sp[0, 1] - s0[0, 1]) / (2.0 * t * sigma ** 2)
    sm = sigma_T(Family.NORMAL,
                 ParameterVector(theta=-t, sigma=sigma), scheme)
    # s22(t) + s22(-t) - 2 s22(0) = 8 t^2 sigma^2 L221
    out["221"] = (sp[1, 1] + sm[1, 1] - 2.0 * s0[1, 1]) / (
        8.0 * t * t * sigma ** 2)
    out["222"] = (sp[1, 1] - sm[1, 1]) / (16.0 * t * sigma ** 3)
    return out


class TestLambdaPsiEntries:
    def test_parameter_independence(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        e1 = _extract_lambda_from_sigma_t(s, [2.0], sigma=1.0)
        e2 = _extract_lambda_from_sigma_t(s, [5.0], sigma=3.0)
        for key in e1:
            assert e1[key] == pytest.approx(e2[key], rel=1e-12, abs=1e-12)
        lam = lambda_entries(s)
        for key in lam:
            assert lam[key] == pytest.approx(e1[key], rel=1e-9, abs=1e-12)

    def test_psi_parameter_independence(self):
        s = validate_scheme(0.10, 0.10, 0.00, 0.20)
        psi = psi_entries(s)
        # sigma = 1 kills the log-sigma terms entry by entry.
        p1 = ParameterVector(sigma=1.0, beta=2.0)
        st = sigma_T(Family.FRECHET, p1, s)
        assert st[0, 0] == pytest.approx(4.0 * psi["111"], rel=1e-12)
        assert st[0, 1] == pytest.approx(-16.0 * psi["122"], rel=1e-12)
        assert st[1, 1] == pytest.approx(64.0 * psi["223"], rel=1e-12)
        p2 = ParameterVector(sigma=math.e, beta=1.0)
        st = sigma_T(Family.FRECHET, p2, s)
        assert st[0, 0] == pytest.approx(psi["111"], rel=1e-12)
        assert st[0, 1] == pytest.approx(
            2.0 * psi["121"] - 2.0 * psi["122"], rel=1e-12)
        assert st[1, 1] == pytest.approx(
            4.0 * psi["221"] - 8.0 * psi["222"] + 4.0 * psi["223"], rel=1e-12)

    def test_equal_scheme_entry_coincidences(self):
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        lam = lambda_entries(s)
        assert lam["111"] == pytest.approx(lam["121"], rel=1e-10)
        assert lam["111"] == pytest.approx(lam["221"], rel=1e-10)
        assert lam["122"] == pytest.approx(lam["222"], rel=1e-10)
        psi = psi_entries(s)
        assert psi["111"] == pytest.approx(psi["221"], rel=1e-10)

    def test_sigma_t_positive_semidefinite(self, rng):
        for _ in range(8):
            s = random_scheme(rng, lo=0.0)
            for family in (Family.NORMAL, Family.FRECHET):
                params = random_params(rng, family)
                m = sigma_T(family, params, s)
                assert m[0, 0] >= 0.0 and m[1, 1] >= 0.0
                assert np.linalg.det(m) >= -1e-9

    def test_zero_entry_meets_no_overflowed_power(self):
        # The closed-form Lambda_222 of an untrimmed second window is
        # exactly 0, and 8 loc scale^3 overflows at loc = scale = 1e77:
        # its term is 0, so Var T2 is inf (out of range), not nan.
        s = validate_scheme(0.01, 0.0, 0.0, 0.0)
        lam = lambda_entries(s)
        assert lam["222"] == 0.0
        assert asymptotics._sigma_entries(1e77, 1e77, lam)[2] == math.inf

    def test_theta_zero_cross_term(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        params = ParameterVector(theta=0.0, sigma=2.0)
        st = sigma_T(Family.NORMAL, params, s)
        lam = lambda_entries(s)
        assert st[0, 1] == pytest.approx(2.0 * 8.0 * lam["122"], rel=1e-12)


class TestJacobians:
    @staticmethod
    def _richardson(g, t1, t2, eps):
        """Central differences with one Richardson extrapolation step
        (O(eps^4) truncation), columns (d/dt1, d/dt2)."""
        def central(h):
            return np.column_stack([
                (g(t1 + h, t2) - g(t1 - h, t2)) / (2 * h),
                (g(t1, t2 + h) - g(t1, t2 - h)) / (2 * h),
            ])

        coarse = central(eps)
        fine = central(eps / 2.0)
        return (4.0 * fine - coarse) / 3.0

    @staticmethod
    def _fd_step(t1, t2, con):
        # The scale map's curvature blows up as the discriminant
        # shrinks; keep the step a fixed small fraction of it.
        disc = t2 - con.eta_r * t1 * t1
        return 1e-4 * disc / max(1.0, abs(t1))

    def _fd_jacobian_ls(self, t1, t2, con, branch):
        sign = 1.0 if branch == "plus" else -1.0

        def g(tt1, tt2):
            disc = tt2 - con.eta_r * tt1 * tt1
            sig = sign * math.sqrt(disc) / math.sqrt(con.eta_12) \
                + tt1 * (con.m1_11 - con.m1_22) / con.eta_12
            return np.array([tt1 - con.m1_11 * sig, sig])

        return self._richardson(g, t1, t2, self._fd_step(t1, t2, con))

    def _fd_jacobian_fr(self, t1, t2, con, branch):
        sign = 1.0 if branch == "plus" else -1.0

        def g(tt1, tt2):
            disc = tt2 - con.eta_r * tt1 * tt1
            beta = sign * math.sqrt(disc) / math.sqrt(con.eta_12) \
                + tt1 * (con.m1_22 - con.m1_11) / con.eta_12
            return np.array([beta, math.exp(tt1 + beta * con.m1_11)])

        return self._richardson(g, t1, t2, self._fd_step(t1, t2, con))

    def test_finite_difference_location_scale(self, rng):
        for _ in range(10):
            s = random_scheme(rng)
            params = random_params(rng, Family.NORMAL)
            con = eta_constants(Family.NORMAL, s)
            t1, t2 = population_moments(Family.NORMAL, params, s)
            for branch in ("plus", "minus"):
                jac = jacobian_at_moments(Family.NORMAL, t1, t2, con, branch)
                fd = self._fd_jacobian_ls(t1, t2, con, branch)
                assert np.allclose(jac, fd, rtol=1e-6, atol=1e-8)

    def test_finite_difference_frechet(self, rng):
        for _ in range(10):
            s = random_scheme(rng)
            params = random_params(rng, Family.FRECHET)
            con = zeta_constants(s)
            t1, t2 = population_moments(Family.FRECHET, params, s)
            jac = jacobian_at_moments(Family.FRECHET, t1, t2,
                                      eta_constants(Family.FRECHET, s), "plus",
                                      plus_sigma(Family.FRECHET, t1, t2, s))
            fd = self._fd_jacobian_fr(t1, t2, con, "plus")
            assert np.allclose(jac, fd, rtol=1e-5, atol=1e-8)

    def test_frechet_row_ratio_identity(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        params = ParameterVector(sigma=2.0, beta=0.7)
        con = zeta_constants(s)
        jac = jacobian_location_scale(params, s, "plus", Family.FRECHET)
        assert jac[1, 1] / jac[0, 1] == pytest.approx(
            params.sigma * con.m1_11, rel=1e-10)

    def test_lemma1_determinant_cancellation(self, rng):
        for _ in range(25):
            s = random_scheme(rng)
            params = random_params(rng, Family.NORMAL)
            dp = jacobian_location_scale(params, s, "plus")
            dm = jacobian_location_scale(params, s, "minus")
            assert abs(np.linalg.det(dp) + np.linalg.det(dm)) < 1e-10
        for _ in range(25):
            s = random_scheme(rng)
            params = random_params(rng, Family.FRECHET)
            dp = jacobian_location_scale(params, s, "plus", Family.FRECHET)
            dm = jacobian_location_scale(params, s, "minus", Family.FRECHET)
            scale = max(1.0, abs(np.linalg.det(dp)))
            assert abs(np.linalg.det(dp) + np.linalg.det(dm)) < 1e-10 * scale

    def test_omega_form_d22(self):
        # d22(plus) = 1 / (2 Omega) with Omega the absolute combination
        # of constants and parameters from the location-scale display.
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        params = ParameterVector(theta=1.0, sigma=2.0)
        con = eta_constants(Family.NORMAL, s)
        jac = jacobian_location_scale(params, s, "plus")
        omega = abs(params.sigma * (con.m2_22 - con.m1_11 * con.m1_22)
                    + params.theta * (con.m1_22 - con.m1_11))
        assert jac[1, 1] == pytest.approx(1.0 / (2.0 * omega), rel=1e-9)

    def test_singularity_raises(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        con = eta_constants(Family.NORMAL, s)
        with pytest.raises(SingularityError):
            jacobian_at_moments(Family.NORMAL, 2.0, con.eta_r * 4.0, con)

    @pytest.mark.parametrize("k", [1e-100, 1e100])
    def test_singular_rule_is_scale_free(self, k):
        # The discriminant is singular relative to its terms, so the
        # moments (k t1, k^2 t2) of data rescaled by k get the verdict
        # of (t1, t2).
        def singular(family, t1, t2, con):
            try:
                jacobian_at_moments(family, t1, t2, con, Branch.PLUS, 1.0)
            except SingularityError:
                return True
            return False

        verdicts = set()
        for family in Family:
            for s in (validate_scheme(0.1, 0.1, 0.1, 0.1),
                      validate_scheme(0.05, 0.05, 0.00, 0.10)):
                con = eta_constants(family, s)
                for t1 in (-3.0, 0.5, 2.0, 40.0):
                    for gap in (-1e-3, 0.0, 1e-15, 1e-6, 1.0):
                        t2 = con.eta_r * t1 * t1 + gap
                        verdict = singular(family, t1, t2, con)
                        assert singular(family, k * t1, k * k * t2,
                                        con) == verdict
                        verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_bad_branch(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        con = eta_constants(Family.NORMAL, s)
        with pytest.raises(ValueError):
            jacobian_at_moments(Family.NORMAL, 1.0, 2.0, con, branch="both")


class TestDeltaAndSMle:
    def test_identity_jacobian(self):
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        st = sigma_T(Family.NORMAL, ParameterVector(theta=1.0, sigma=2.0), s)
        assert np.allclose(delta_covariance(st, np.eye(2)), st)

    def test_determinant_multiplicativity(self, rng):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = np.array([[1.0, 2.0], [0.5, -1.0]])
        s = delta_covariance(m, d)
        assert np.linalg.det(s) == pytest.approx(
            np.linalg.det(d) ** 2 * np.linalg.det(m), rel=1e-10)

    def test_frechet_s_mle_det_identity(self, rng):
        for _ in range(10):
            params = random_params(rng, Family.FRECHET)
            m = s_mle(Family.FRECHET, params)
            target = 6.0 * params.beta ** 4 * params.sigma ** 2 / math.pi ** 2
            assert abs(np.linalg.det(m) - target) <= 1e-12 * target

    def test_frechet_s_mle_is_inverse_fisher_information(self, rng):
        # Fisher information of the Frechet model in (beta, sigma): the
        # Gumbel location-scale information for (log sigma, beta),
        # (1/beta^2) [[1, g-1], [g-1, (1-g)^2 + pi^2/6]], carried over by
        # d log sigma / d sigma = 1/sigma.
        g = 0.57721566490153286061
        for _ in range(10):
            params = random_params(rng, Family.FRECHET)
            beta, sigma = params.beta, params.sigma
            info = np.array([
                [((1.0 - g) ** 2 + math.pi ** 2 / 6.0) / beta ** 2,
                 (g - 1.0) / (sigma * beta ** 2)],
                [(g - 1.0) / (sigma * beta ** 2), 1.0 / (sigma * beta) ** 2],
            ])
            expected = np.linalg.inv(info)
            got = s_mle(Family.FRECHET, params)
            for i in range(2):
                for j in range(2):
                    assert got[i, j] == pytest.approx(expected[i, j],
                                                      rel=1e-13)

    def test_frechet_s_mle_unit(self):
        m = s_mle(Family.FRECHET, ParameterVector(sigma=1.0, beta=1.0))
        assert np.linalg.det(m) == pytest.approx(6.0 / math.pi ** 2, rel=1e-12)

    def test_normal_untrimmed_are_is_one(self):
        s = validate_scheme(0.0, 0.0, 0.0, 0.0)
        r = are(Family.NORMAL, ParameterVector(theta=3.0, sigma=2.0), s)
        assert r.are == pytest.approx(1.0, abs=1e-6)


class TestAre:
    def test_normal_equal_scheme_constant_in_theta(self):
        s = validate_scheme(0.02, 0.02, 0.02, 0.02)
        vals = [are(Family.NORMAL, ParameterVector(theta=t, sigma=3.0), s).are
                for t in (-25.0, 0.0, 10.0, 25.0)]
        for v in vals:
            assert v == pytest.approx(0.943, abs=2e-3)
            assert v == pytest.approx(vals[0], abs=1e-9)

    def test_normal_asymmetric_anchor(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        r = are(Family.NORMAL, ParameterVector(theta=10.0, sigma=3.0), s)
        assert r.are == pytest.approx(0.206, abs=2e-3)

    def test_frechet_equal_scheme_constant_in_beta(self):
        s = validate_scheme(0.02, 0.02, 0.02, 0.02)
        vals = [are(Family.FRECHET, ParameterVector(sigma=2.0, beta=b), s).are
                for b in (0.1, 1.0, 25.0)]
        for v in vals:
            assert v == pytest.approx(0.771, abs=2e-3)

    def test_branch_invariance_of_det(self, rng):
        for _ in range(10):
            s = random_scheme(rng)
            params = random_params(rng, Family.NORMAL)
            st = sigma_T(Family.NORMAL, params, s)
            t1, t2 = population_moments(Family.NORMAL, params, s)
            con = eta_constants(Family.NORMAL, s)
            dets = []
            for branch in ("plus", "minus"):
                jac = jacobian_at_moments(Family.NORMAL, t1, t2, con, branch)
                dets.append(np.linalg.det(delta_covariance(st, jac)))
            assert dets[0] == pytest.approx(dets[1], rel=1e-10)

    def test_singular_flagged_as_zero(self):
        # At beta = 0.2, sigma = 2 the discriminant of this scheme is
        # ~5.2e-7: tiny but above the singularity threshold, so the ARE
        # is near zero without the singular flag.
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        r = are(Family.FRECHET, ParameterVector(sigma=2.0, beta=0.2), s)
        assert not r.singular
        assert r.are == pytest.approx(0.004, abs=2e-3)

    @pytest.mark.parametrize("quad, distinct", [((0.1, 0.1, 0.1, 0.1), 1),
                                                ((0.05, 0.1, 0.05, 0.2), 2),
                                                ((0.0, 0.1, 0.0, 0.0), 2)])
    def test_cold_point_computes_each_window_integral_once(
            self, monkeypatch, quad, distinct):
        # The constants and the covariance entries read every window
        # integral from the segment table, so a cold point evaluates each
        # segment between the scheme's breakpoints once: in closed form
        # for the normal base, by one quadrature pass in the Gumbel
        # variable for the Gumbel base, over [G(lo), G(hi)] (from -4 at
        # u = 0).  A segment ending at 1 is the complete moments less
        # [0, lo], a segment of the table itself: on 0,0.1,0,0 that is
        # the segment [0, 0.9] already there, and no pass is added.
        calls = []

        def counted(f, a, b):
            calls.append((a, b))
            return integrate(f, a, b)

        gumbel = LAWS[Family.FRECHET].base

        def limits(lo, hi):
            start = -4.0 if lo == 0.0 else gumbel(lo)
            return [] if hi == 1.0 else [(start, gumbel(hi))]

        monkeypatch.setattr(moments, "integrate", counted)
        for family in (Family.NORMAL, Family.FRECHET):
            segments = _count_segments(monkeypatch)
            calls.clear()
            clear_caches()
            are(family, ParameterVector(theta=1.0, sigma=1.0, beta=1.0),
                validate_scheme(*quad))
            assert len(segments) == len(set(segments)) == distinct
            expected = [lim for seg in segments for lim in limits(*seg)]
            assert calls == (expected if family is Family.FRECHET else [])

    def test_cold_point_reads_the_base_once_per_node(self, monkeypatch):
        # Both bases are read at the segment ends only: the normal base's
        # powers are closed forms, and the Gumbel quadrature runs in the
        # Gumbel variable, whose integrand never calls the base.  The
        # covariance entries read it at the scheme's breakpoints.
        visited = []

        def counted(f, a, b):
            def g(x):
                visited.append(np.size(x))
                return f(x)
            return integrate(g, a, b)

        monkeypatch.setattr(moments, "integrate", counted)
        for family in (Family.NORMAL, Family.FRECHET):
            base_points, law = [], LAWS[family]

            def counted_base(u, original=law.base, base_points=base_points):
                base_points.append(np.size(u))
                return original(u)

            monkeypatch.setitem(LAWS, family, law._replace(base=counted_base))
            segments = _count_segments(monkeypatch)
            visited.clear()
            clear_caches()
            are(family, ParameterVector(theta=1.0, sigma=1.0, beta=1.0),
                validate_scheme(0.1, 0.1, 0.1, 0.1))
            assert (sum(visited) > 0) is (family is Family.FRECHET)
            assert 0 < sum(base_points) <= 2 * len(segments) + 4

    def test_vanishing_discriminant_is_singular(self):
        # At this theta the plus-branch discriminant of the scheme falls
        # below the singularity threshold: ARE 0 with the singular flag.
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        r = are(Family.NORMAL, ParameterVector(theta=3.846702307022145,
                                               sigma=1.0), s)
        assert r.singular
        assert r.are == 0.0
        assert r.det_s_t == math.inf


class TestAreClosedForm:
    """`are` takes det S_T = det(D)^2 det(Sigma_T) in units of the scale;
    the oracle forms the full product D Sigma_T D'."""

    @pytest.mark.parametrize("family", list(Family))
    def test_matches_full_product(self, rng, family):
        for _ in range(12):
            s = random_scheme(rng)
            params = random_params(rng, family)
            got = are(family, params, s)
            ref = are_reference(family, params, s)
            assert got.singular == ref.singular
            if ref.are > 1e-3:
                assert got.are == pytest.approx(ref.are, rel=1e-9, abs=0.0)
            else:
                assert got.are == pytest.approx(ref.are, rel=0.0, abs=1e-11)

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LOGNORMAL])
    @pytest.mark.parametrize("quad", [(0.02, 0.02, 0.02, 0.02),
                                      (0.1, 0.1, 0.1, 0.1),
                                      (0.05, 0.2, 0.05, 0.2)])
    def test_equal_scheme_free_of_large_theta(self, family, quad):
        # The product D Sigma_T D' cancels at a large theta / sigma; the
        # closed form has no theta terms for equal schemes.
        s = validate_scheme(*quad)
        for sigma in (1.0, 3.0):
            at_zero = are(family, ParameterVector(theta=0.0, sigma=sigma), s)
            for ratio in (1e6, 1e8, 1e15):
                r = are(family, ParameterVector(theta=ratio * sigma,
                                                sigma=sigma), s)
                assert not r.singular
                assert r.are == pytest.approx(at_zero.are, rel=0.0,
                                              abs=1e-12)

    def test_equal_scheme_at_theta_over_sigma_past_sqrt_max(self):
        # theta / sigma = 1e160: its square overflows, but the vanishing
        # theta coefficients of an equal scheme multiply it first.
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        at_zero = are(Family.NORMAL, ParameterVector(theta=0.0, sigma=1e-60), s)
        r = are(Family.NORMAL, ParameterVector(theta=1e100, sigma=1e-60), s)
        assert not r.singular
        assert r.are == pytest.approx(at_zero.are, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("offset, singular", [(1e-9, True), (1e-7, True),
                                                  (1e-4, False)])
    def test_singular_relative_to_discriminant_terms(self, offset, singular):
        # This scheme's discriminant is a square in theta / sigma, with
        # its double root at the theta of
        # test_vanishing_discriminant_is_singular; at a relative offset d
        # from the root it is about d^2 / 2 of the size of its terms.
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        params = ParameterVector(theta=2.0 * 3.846702307022145 * (1.0 + offset),
                                 sigma=2.0)
        r = are(Family.NORMAL, params, s)
        assert r.singular is singular
        assert r.singular == are_reference(Family.NORMAL, params, s).singular


# The published schemes of the ARE tables: four equal, four nested.
REFERENCE_SCHEMES = [(0.02, 0.02, 0.02, 0.02), (0.05, 0.05, 0.05, 0.05),
                     (0.1, 0.1, 0.1, 0.1), (0.15, 0.15, 0.15, 0.15),
                     (0.02, 0.02, 0.00, 0.04), (0.05, 0.05, 0.00, 0.10),
                     (0.1, 0.1, 0.00, 0.20), (0.15, 0.15, 0.00, 0.30)]


class TestWarmAre:
    """A warm `are` point is Python-float arithmetic on one cached record
    per base quantile and scheme, with S_MLE as rows of Python floats."""

    def test_one_record_per_base_and_scheme(self):
        # Every constant of a scheme is one cached record per (base,
        # scheme): normal and lognormal share it, and `are`, `sigma_T`,
        # `eta_constants` and `delta_method` all read it.  Besides the
        # segment table, the package holds no other cache.
        clear_caches()
        s = validate_scheme(0.05, 0.05, 0.0, 0.1)
        params = ParameterVector(theta=1.0, sigma=2.0)
        are(Family.NORMAL, params, s)
        are(Family.LOGNORMAL, params, s)
        sigma_T(Family.NORMAL, params, s)
        eta_constants(Family.NORMAL, s)
        eta_constants(Family.LOGNORMAL, s)
        delta_method(fit(load_dataset(), s, Family.LOGNORMAL))[0]
        caches = {value for name, module in list(sys.modules.items())
                  if name.startswith("trimmoments")
                  for value in vars(module).values()
                  if callable(getattr(value, "cache_info", None))
                  and value is not moments._segment}
        sizes = [c.cache_info().currsize for c in caches]
        assert sizes == [1]
        # A scheme compares equal to a plain tuple of its values, so the
        # cache's keys stay apart only while its callers pass the
        # TrimmingScheme that `validate_scheme` returns.
        assert type(s) is moments.TrimmingScheme and s == tuple(s)

    @pytest.mark.parametrize("family", list(Family))
    def test_warm_point_equals_cold_point(self, monkeypatch, family):
        own = LAWS[family].names[0]
        points = [(ParameterVector(**{own: v, "sigma": 2.0}),
                   validate_scheme(*quad))
                  for quad in REFERENCE_SCHEMES for v in (0.5, 1.0, 2.5)]
        if family is not Family.FRECHET:
            # theta / sigma = 1e160, past sqrt(max): an equal scheme, and
            # a nested one whose l^2 overflows.
            far = ParameterVector(theta=1e100, sigma=1e-60)
            points += [(far, validate_scheme(0.1, 0.1, 0.1, 0.1)),
                       (far, validate_scheme(0.05, 0.05, 0.00, 0.10))]
        for params, s in points:
            are(family, params, s)
        segments = _count_segments(monkeypatch)
        warm = [are(family, params, s) for params, s in points]
        assert segments == []
        for (params, s), got in zip(points, warm):
            clear_caches()
            assert are(family, params, s) == got
        assert segments

    @pytest.mark.parametrize("family", list(Family))
    def test_s_mle_array_holds_the_spec_rows(self, rng, family):
        for _ in range(5):
            params = random_params(rng, family)
            rows = LAWS[family].s_mle(params)
            assert type(rows) is tuple
            assert all(type(v) is float for row in rows for v in row)
            got = s_mle(family, params)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [list(row) for row in rows]


class TestBreakdownAndFitCovariance:
    def test_breakdown_points(self):
        assert breakdown_points(validate_scheme(0.05, 0.05, 0.00, 0.10)) == \
            (0.0, 0.05)
        assert breakdown_points(validate_scheme(0.1, 0.1, 0.1, 0.1)) == \
            (0.1, 0.1)
        assert breakdown_points(validate_scheme(0.15, 0.15, 0.30, 0.00)) == \
            (0.15, 0.0)

    def test_fit_covariance_tracks_live_branch(self):
        x = sample(Family.NORMAL, ParameterVector(theta=0.1, sigma=5.0),
                   500, 77)
        fit = fit_location_scale(x, validate_scheme(0.05, 0.05, 0.00, 0.10))
        cov = delta_method(fit)[0]
        assert cov[0, 0] > 0.0 and cov[1, 1] > 0.0
        assert cov[0, 1] == pytest.approx(cov[1, 0])
        # On this sample the estimator takes the minus candidate, and the
        # covariance is the delta method on the minus-branch Jacobian.
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        x = sample(Family.NORMAL, ParameterVector(theta=5.0, sigma=1.0),
                   500, 0)
        fit = fit_location_scale(x, s)
        assert fit.branch is Branch.MINUS
        st = sigma_T(Family.NORMAL, fit.params, s)
        con = eta_constants(Family.NORMAL, s)

        def delta(branch):
            return delta_covariance(st, jacobian_at_moments(
                Family.NORMAL, fit.t1, fit.t2, con, branch, fit.params.sigma))

        # delta_method takes the product in units of the fitted scale,
        # so it agrees with this data-unit one up to rounding.
        cov = delta_method(fit)[0]
        assert correlation_gap(cov, delta(Branch.MINUS)) <= 1e-12
        assert not np.allclose(cov, delta(Branch.PLUS))

    def test_fit_covariance_is_the_data_unit_delta_method(self):
        # On seeded fits of every family, lattice schemes and both
        # branches, the covariance in units of the fitted scale is the
        # data-unit D Sigma_T D' at the fit's own moments; a negative
        # sample discriminant stays singular.
        rng = np.random.default_rng(2024)
        branches, negative = set(), 0
        for i in range(1500):
            family = list(Family)[i % 3]
            while True:
                try:
                    s = validate_scheme(*(rng.integers(0, 31, 4) / 100))
                    break
                except SchemeError:
                    continue
            x = sample(family, random_params(rng, family),
                       int(rng.integers(20, 401)), rng)
            f = fit(x, s, family)
            if f.discriminant_negative:
                negative += 1
                with pytest.raises(SingularityError):
                    delta_method(f)[0]
                continue
            ref = delta_covariance(
                sigma_T(family, f.params, s),
                jacobian_at_moments(family, f.t1, f.t2,
                                    eta_constants(family, s), f.branch,
                                    f.params.sigma))
            assert correlation_gap(delta_method(f)[0], ref) <= 1e-11
            branches.add(f.branch)
        assert {Branch.PLUS, Branch.MINUS} <= branches
        assert negative > 0

    def test_fit_covariance_frechet(self):
        x = sample(Family.FRECHET, ParameterVector(sigma=2.0, beta=5.0),
                   500, 78)
        fit = fit_frechet(x, validate_scheme(0.05, 0.05, 0.00, 0.10))
        cov = delta_method(fit)[0]
        assert cov[0, 0] > 0.0 and cov[1, 1] > 0.0
