import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trimmoments import simulation
from trimmoments.estimators import (
    candidate_scales,
    fit,
    fit_frechet,
    fit_location_scale,
    mle_frechet,
    mle_normal,
    row_moments,
    solve_rows,
    solve_scale,
)
from trimmoments.families import Branch, EstimationError
from trimmoments.models import SPECS, Family, ParameterVector, sample
from trimmoments.moments import (
    SchemeTag,
    eta_constants,
    population_moments,
    trim_counts,
    validate_scheme,
    zeta_constants,
)
from conftest import STUDY_SCHEMES, random_params, random_scheme
from oracles import (
    c_k,
    fit_rows_by_slices,
    frechet_rows_allocating,
    kappa_k,
    mle_frechet_brent,
)
from oracles import frechet_score as _xi


class TestMleNormal:
    def test_constant_data_degenerate(self):
        assert mle_normal([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_points(self):
        assert mle_normal([0.0, 2.0]) == (1.0, 1.0)

    def test_constant_sample_has_no_mle(self):
        # The spread of 100 copies of 0.1 about their mean is a rounding
        # residue (2.8e-17), not a likelihood maximum.
        with pytest.raises(EstimationError):
            SPECS[Family.NORMAL].mle([0.1] * 100)

    def test_large_sample_recovery(self):
        x = sample(Family.NORMAL, ParameterVector(theta=0.1, sigma=5.0),
                   100_000, 3)
        theta, sigma = mle_normal(x)
        assert abs(theta - 0.1) < 0.07
        assert abs(sigma - 5.0) < 0.05

    def test_too_few(self):
        with pytest.raises(ValueError):
            mle_normal([1.0])


class TestMleFrechet:
    def test_score_strictly_increasing(self):
        rng = np.random.default_rng(0)
        logx = np.log(rng.lognormal(size=50))
        betas = np.linspace(0.1, 10.0, 60)
        vals = [_xi(b, logx) for b in betas]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_large_sample_recovery(self):
        x = sample(Family.FRECHET, ParameterVector(sigma=2.0, beta=5.0),
                   100_000, 4)
        beta, sigma = mle_frechet(x)
        assert 0.98 <= beta / 5.0 <= 1.02
        assert abs(_xi(beta, np.log(x))) <= 1e-10
        assert sigma == pytest.approx(2.0, rel=0.1)

    def test_degenerate_constant_data(self):
        with pytest.raises(EstimationError):
            mle_frechet([3.0] * 10)

    def test_nonpositive_data(self):
        with pytest.raises(ValueError):
            mle_frechet([1.0, -1.0])

    def test_rows_match_brent_oracle_and_single_samples(self, rng):
        # The Newton rows agree with Brent's method on the score, and
        # each row is the MLE of that sample alone.
        for n in (20, 100, 1000):
            params = [random_params(rng, Family.FRECHET) for _ in range(8)]
            x = np.array([sample(Family.FRECHET, p, n, rng) for p in params])
            loc, beta = SPECS[Family.FRECHET].mle_rows(np.log(x))
            for i, row in enumerate(x):
                b_ref, s_ref = mle_frechet_brent(row)
                assert beta[i] == pytest.approx(b_ref, rel=1e-13)
                assert math.exp(loc[i]) == pytest.approx(s_ref, rel=1e-12)
                assert mle_frechet(row) == (beta[i], math.exp(loc[i]))

    def test_step_below_half_an_ulp_converges(self):
        # The moved sample of the contamination example: at the root
        # (score -8.9e-16) the last Newton step rounds beta onto the lower
        # bracket end, and the row is kept rather than restarted.
        x = [6.228772277373257, 4.066316680546237, 2.750667029112797,
             5.180015479362789, 0.002979168480323709, 0.011531861282921753,
             0.0003407598725462346, 7.724273206525247, 0.0004784154604355888,
             4.777122701631869, 4.654034350755878, 6.794229198795917,
             2.957150052479533, 6.848337657358204, 11.091477996238387,
             4.337297157755706, 4.6658962504142325, 5.6838200270836365,
             5.084362263769661, 3.1511877734365332]
        beta, sigma = mle_frechet(x)
        b_ref, s_ref = mle_frechet_brent(np.array(x))
        assert beta == pytest.approx(b_ref, rel=1e-13)
        assert sigma == pytest.approx(s_ref, rel=1e-12)

    def test_rows_match_allocating_kernel(self):
        # The scratch-buffer kernel is the allocating one, bit for bit,
        # and leaves its input alone.  A study block has every row fast;
        # the mixed blocks add rows with one far low point, which fall
        # back to bisection from n of about 60 on (at n = 20 Newton alone
        # converges on them), and a constant row, which has no root.
        u = simulation._uniforms(0, 0, 0, 131, 1000)
        blocks = [SPECS[Family.FRECHET].draw(
            ParameterVector(sigma=2.0, beta=5.0), u)]
        gen = np.random.default_rng(8)
        for n in (20, 100, 1000):
            x = np.array(
                [-np.log(-np.log(gen.random(n))) for _ in range(5)]
                + [np.r_[-low, np.linspace(0.0, 1.0, n - 1)]
                   for low in (5.0, 40.0, 1000.0)]
                + [np.full(n, 0.7)])
            blocks.append(x[gen.permutation(len(x))])
        for y in blocks:
            y0 = y.copy()
            got = SPECS[Family.FRECHET].mle_rows(y)
            want = frechet_rows_allocating(y0)
            assert np.array_equal(y, y0)
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)
        assert np.isnan(got[1]).sum() == 1  # the constant row only

    def test_rows_flag_constant_rows(self):
        x = np.array([sample(Family.FRECHET,
                             ParameterVector(sigma=2.0, beta=5.0), 50, k)
                      for k in range(3)])
        x[1] = 3.0
        loc, beta = SPECS[Family.FRECHET].mle_rows(np.log(x))
        assert np.isnan(loc[1]) and np.isnan(beta[1])
        assert np.isfinite(loc[[0, 2]]).all() and np.isfinite(beta[[0, 2]]).all()

    @pytest.mark.parametrize("beta", [1e5, 1e6, 1e8])
    def test_rows_converge_at_a_large_beta(self, beta):
        # Log-data of scale beta: beta-hat is beta times that of the same
        # uniforms at beta = 1, and no row fails.  The score's terms are of
        # order beta, so no absolute bound on it can mark convergence.
        spec = SPECS[Family.FRECHET]
        u = np.random.default_rng(5).random((20, 400))
        unit = spec.mle_rows(spec.draw(ParameterVector(sigma=2.0, beta=1.0),
                                       u.copy()))[1]
        got = spec.mle_rows(spec.draw(ParameterVector(sigma=2.0, beta=beta),
                                      u.copy()))[1]
        assert not np.isnan(got).any()
        assert got == pytest.approx(beta * unit, rel=1e-13, abs=0.0)


class TestCandidateScales:
    def test_note_values_narrow_window(self):
        s = validate_scheme(0.02, 0.02, 0.00, 0.03)
        params = ParameterVector(theta=10.0, sigma=3.0)
        t1, t2 = population_moments(Family.NORMAL, params, s)
        pair = candidate_scales(t1, t2, eta_constants(Family.NORMAL, s))
        assert pair.ft == pytest.approx(2.192, abs=1e-3)
        assert pair.st == pytest.approx(0.808, abs=1e-3)
        assert pair.plus == pytest.approx(3.0, abs=1e-3)

    def test_note_values_wide_window(self):
        s = validate_scheme(0.02, 0.02, 0.00, 0.10)
        params = ParameterVector(theta=10.0, sigma=3.0)
        t1, t2 = population_moments(Family.NORMAL, params, s)
        pair = candidate_scales(t1, t2, eta_constants(Family.NORMAL, s))
        assert pair.ft == pytest.approx(0.400, abs=1e-3)
        assert pair.st == pytest.approx(2.600, abs=1e-3)

    def test_frechet_note_values(self):
        params = ParameterVector(sigma=3.0, beta=2.0)
        s = validate_scheme(0.02, 0.02, 0.00, 0.03)
        t1, t2 = population_moments(Family.FRECHET, params, s)
        pair = candidate_scales(t1, t2, eta_constants(Family.FRECHET, s))
        assert pair.ft == pytest.approx(1.860, abs=1e-3)
        assert pair.st == pytest.approx(0.139, abs=1e-3)
        s = validate_scheme(0.02, 0.02, 0.00, 0.20)
        t1, t2 = population_moments(Family.FRECHET, params, s)
        pair = candidate_scales(t1, t2, eta_constants(Family.FRECHET, s))
        assert pair.ft == pytest.approx(0.738, abs=1e-3)
        assert pair.st == pytest.approx(1.262, abs=1e-3)
        assert pair.plus == pytest.approx(2.0, abs=1e-3)

    def test_negative_discriminant_flag(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        con = eta_constants(Family.NORMAL, s)
        pair = candidate_scales(5.0, 0.1, con)  # t2 << eta_r * t1^2
        assert pair.discriminant_negative
        assert pair.ft >= 0.0


class TestSolveScale:
    def test_equal_scheme_takes_ft_without_mle(self):
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        con = eta_constants(Family.NORMAL, s)

        def must_not_call():
            raise AssertionError("MLE must not be needed for Equal schemes")

        scale, minus, pair = solve_scale(1.0, 2.0, con, must_not_call)
        assert not minus
        assert scale == pair.ft

    @pytest.mark.parametrize("family", list(Family))
    def test_equal_schemes_take_ft_by_the_one_rule(self, family):
        # Equal windows make ST = 0, so the one sign rule takes plus = FT
        # where FT > 0, fails where FT = 0 and never consults the MLE.
        def must_not_call():
            raise AssertionError("MLE must not be needed for Equal schemes")

        t1 = np.repeat([-3.0, 0.5, 2.0], 3)
        t2 = t1 * t1 * np.tile([0.5, 1.0, 2.0], 3)
        for a in PROPORTIONS:
            for b in PROPORTIONS:
                s = validate_scheme(a, b, a, b)
                con = eta_constants(family, s)
                scale, minus, pair = solve_scale(t1, t2, con, must_not_call)
                assert (pair.ft == 0.0).sum() == 3
                assert np.array_equal(
                    scale, np.where(pair.ft > 0.0, pair.ft, np.nan),
                    equal_nan=True)
                assert not minus.any()
        x = np.random.default_rng(1).normal(5.0, 1.0, 200)
        scheme = validate_scheme(0.1, 0.2, 0.1, 0.2)
        fitted = fit(SPECS[family].inverse(x), scheme, family)
        assert fitted.branch is Branch.EQUAL_TRIM

    def test_both_nonpositive_raises(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        con = eta_constants(Family.NORMAL, s)
        # t1 < 0 makes ST < 0; t2 = eta_r*t1^2 makes FT = 0.
        t1 = -2.0
        t2 = con.eta_r * t1 * t1
        scale, _, _ = solve_scale(t1, t2, con, lambda: 1.0)
        assert np.isnan(scale)

    def test_arrays_fail_per_sample(self):
        # Elementwise: NaN where both candidates are nonpositive, or both
        # positive and the sample has no reference MLE.
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        con = eta_constants(Family.NORMAL, s)
        t1 = np.array([-2.0, 2.0, 2.0, 2.0])
        t2 = con.eta_r * t1 * t1 + np.array([0.0, 0.01, 0.01, 1e3])
        pair = candidate_scales(t1, t2, con)
        ref = np.array([1.0, pair.minus[1], np.nan, np.nan])
        scale, minus, _ = solve_scale(t1, t2, con, lambda: ref)
        assert np.isnan(scale[:3]).tolist() == [True, False, True]
        assert scale[1] == pair.minus[1] and minus[1]
        assert pair.minus[3] <= 0.0 and scale[3] == pair.plus[3]

    def test_proximity_rule_and_tie_break(self):
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        con = eta_constants(Family.NORMAL, s)
        t1 = 2.0
        t2 = con.eta_r * t1 * t1 + 0.01  # small FT: both candidates positive
        pair = candidate_scales(t1, t2, con)
        assert pair.minus > 0.0 and pair.plus > 0.0
        scale, minus, _ = solve_scale(t1, t2, con, lambda: pair.minus)
        assert minus and scale == pair.minus
        scale, minus, _ = solve_scale(t1, t2, con, lambda: pair.plus)
        assert not minus and scale == pair.plus
        mid = 0.5 * (pair.minus + pair.plus)  # exact tie
        scale, minus, _ = solve_scale(t1, t2, con, lambda: mid)
        assert not minus


def test_tracer_sees_the_mle_reference(monkeypatch):
    # bench/spans.py counts the solves that consult the MLE reference by
    # wrapping solve_scale's mle_scale, given by keyword or 5th argument.
    # A nested scheme's minus branch consults it; an equal one does not.
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    x = np.random.default_rng(1).normal(5, 1, 200)
    for quad, consulted in [((0.05, 0.05, 0.0, 0.1), 1),
                            ((0.1, 0.1, 0.1, 0.1), 0)]:
        with spans.Tracer() as tracer:
            fitted = fit(x, validate_scheme(*quad))
        assert tracer.counters["reference_consulted"] == consulted
        assert fitted.branch is (Branch.MINUS if consulted
                                 else Branch.EQUAL_TRIM)


class TestFitLocationScale:
    def test_equal_trim_closed_form(self):
        rng = np.random.default_rng(8)
        x = rng.normal(2.0, 3.0, size=200)
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        fit = fit_location_scale(x, s)
        from trimmoments.moments import sample_trimmed_moment
        t1 = sample_trimmed_moment(x, 0.1, 0.1, lambda v: v)
        t2 = sample_trimmed_moment(x, 0.1, 0.1, lambda v: v * v)
        c1 = c_k(Family.NORMAL, 0.1, 0.9, 1)
        c2 = c_k(Family.NORMAL, 0.1, 0.9, 2)
        sigma = math.sqrt((t2 - t1 * t1) / (c2 - c1 * c1))
        assert fit.params.sigma == pytest.approx(sigma, abs=1e-12)
        assert fit.branch is Branch.EQUAL_TRIM

    def test_population_recovery(self, rng):
        # Feeding population moments through the solver recovers the
        # true parameters to 1e-8.
        for _ in range(20):
            s = random_scheme(rng, lo=0.0)
            params = random_params(rng, Family.NORMAL)
            con = eta_constants(Family.NORMAL, s)
            t1, t2 = population_moments(Family.NORMAL, params, s)
            sigma, _, _ = solve_scale(t1, t2, con, lambda: params.sigma)
            theta = t1 - con.m1_11 * sigma
            assert sigma == pytest.approx(params.sigma, abs=1e-8)
            assert theta == pytest.approx(params.theta, abs=1e-8)

    def test_population_recovery_frechet(self, rng):
        for _ in range(20):
            s = random_scheme(rng, lo=0.0)
            params = random_params(rng, Family.FRECHET)
            con = zeta_constants(s)
            t1, t2 = population_moments(Family.FRECHET, params, s)
            beta, _, _ = solve_scale(t1, t2, eta_constants(Family.FRECHET, s),
                                     lambda: params.beta)
            sigma = math.exp(t1 + beta * con.m1_11)
            assert beta == pytest.approx(params.beta, abs=1e-8)
            assert sigma == pytest.approx(params.sigma, abs=1e-8)

    def test_equivariance_equal_scheme(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=150)
        s = validate_scheme(0.05, 0.05, 0.05, 0.05)
        base = fit_location_scale(x, s)
        moved = fit_location_scale(3.0 * x + 7.0, s)
        assert moved.params.theta == pytest.approx(
            3.0 * base.params.theta + 7.0, abs=1e-10)
        assert moved.params.sigma == pytest.approx(
            3.0 * base.params.sigma, abs=1e-10)

    def test_lognormal_is_normal_on_logs(self):
        rng = np.random.default_rng(11)
        x = rng.lognormal(0.3, 0.8, size=120)
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        fit_ln = fit_location_scale(x, s, family=Family.LOGNORMAL)
        fit_n = fit_location_scale(np.log(x), s, family=Family.NORMAL)
        assert fit_ln.params == fit_n.params

    def test_robust_to_max_inflation(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=80)
        y = x.copy()
        y[np.argmax(y)] *= 10.0
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        assert fit_location_scale(x, s).params == fit_location_scale(y, s).params

    def test_consistency(self):
        errs = []
        for n in (1_000, 10_000, 100_000):
            per_seed = []
            for seed in range(15):
                x = sample(Family.NORMAL,
                           ParameterVector(theta=0.1, sigma=5.0), n, seed)
                fit = fit_location_scale(
                    x, validate_scheme(0.05, 0.05, 0.00, 0.10))
                per_seed.append(abs(fit.params.sigma - 5.0))
            errs.append(float(np.median(per_seed)))
        assert errs[0] > errs[1] > errs[2]


class TestFitFrechet:
    def test_equal_trim_closed_form(self):
        x = sample(Family.FRECHET, ParameterVector(sigma=2.0, beta=5.0), 200, 21)
        s = validate_scheme(0.1, 0.1, 0.1, 0.1)
        fit = fit_frechet(x, s)
        from trimmoments.moments import sample_trimmed_moment
        y = np.log(x)
        t1 = sample_trimmed_moment(y, 0.1, 0.1, lambda v: v)
        t2 = sample_trimmed_moment(y, 0.1, 0.1, lambda v: v * v)
        k1 = kappa_k(0.1, 0.9, 1)
        k2 = kappa_k(0.1, 0.9, 2)
        beta = math.sqrt((t2 - t1 * t1) / (k2 - k1 * k1))
        assert fit.params.beta == pytest.approx(beta, abs=1e-12)

    def test_robust_to_max_inflation(self):
        x = sample(Family.FRECHET, ParameterVector(sigma=2.0, beta=0.7), 90, 22)
        y = x.copy()
        y[np.argmax(y)] *= 10.0
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        assert fit_frechet(x, s).params == fit_frechet(y, s).params

    def test_nonpositive_data(self):
        with pytest.raises(ValueError):
            fit_frechet([-1.0, 2.0], validate_scheme(0.0, 0.0, 0.0, 0.0))

    def test_simulated_mean_ratio(self):
        # Frechet(5, 2), n = 1000: the mean estimate/truth ratios sit
        # within a few percent of one.
        s = validate_scheme(0.05, 0.05, 0.00, 0.10)
        ratios = []
        for seed in range(60):
            x = sample(Family.FRECHET, ParameterVector(sigma=2.0, beta=5.0),
                       1000, (100, seed))
            fit = fit_frechet(x, s)
            ratios.append((fit.params.beta / 5.0, fit.params.sigma / 2.0))
        mean = np.mean(ratios, axis=0)
        assert mean[0] == pytest.approx(1.00, abs=0.03)
        assert mean[1] == pytest.approx(1.02, abs=0.03)


class TestFitRows:
    def test_rows_are_single_fits(self, rng):
        # Every row of the batch kernel is the fit of that sample alone.
        for family in Family:
            spec = SPECS[family]
            x = np.array([sample(family, random_params(rng, family), 80, rng)
                          for _ in range(12)])
            y = spec.transform(x)
            mle = spec.mle_rows(y)
            for _ in range(4):
                s = random_scheme(rng, lo=0.0)
                ys = np.sort(y, axis=1)
                loc, scale, minus, pair, t1, t2 = next(solve_rows(
                    *row_moments(ys, ys * ys, [s]), family, [s],
                    lambda: mle[1]))
                for i, row in enumerate(x):
                    if not scale[i] > 0.0:
                        with pytest.raises(EstimationError):
                            fit(row, s, family)
                        continue
                    one = fit(row, s, family)
                    assert (one.t1, one.t2) == (t1[i], t2[i])
                    assert one.params == spec.law.params(loc[i], scale[i])
                    # ... and takes the row's branch.
                    assert one.branch is (
                        Branch.EQUAL_TRIM if s.tag is SchemeTag.EQUAL
                        else Branch.MINUS if minus[i] else Branch.PLUS)
                    assert (one.discriminant_negative
                            == pair.discriminant_negative[i])

    @pytest.mark.parametrize("family", list(Family))
    def test_constant_row_fails_on_every_scheme(self, family):
        # Constant rows (u = 0.5, 0.3, 0.9) have no scale: their batch
        # fits fail on every scheme, as `fit` does on each sample alone,
        # though their roots can be positive (an equal scheme's rounding
        # residue, a nested scheme's plus root).  A drawn row beside them
        # is fitted.
        spec = SPECS[family]
        params = (ParameterVector(sigma=2.0, beta=5.0)
                  if family is Family.FRECHET
                  else ParameterVector(theta=0.1, sigma=5.0))
        u = np.empty((4, 100))
        u[:3] = np.array([[0.5], [0.3], [0.9]])
        u[3] = np.random.default_rng(3).random(100)
        y = np.sort(spec.draw(params, u), axis=1)
        for quad in [(0.1, 0.1, 0.1, 0.1), (0.0, 0.0, 0.0, 0.0),
                     (0.1, 0.1, 0.2, 0.0), (0.05, 0.05, 0.0, 0.1)]:
            s = validate_scheme(*quad)
            scale = next(solve_rows(*row_moments(y, y * y, [s]), family,
                                    [s], lambda: spec.mle_rows(y)[1]))[1]
            assert np.isnan(scale[:3]).all() and scale[3] > 0.0
            for row in spec.inverse(y[:3]):
                with pytest.raises(EstimationError):
                    fit(row, s, family)

    def test_zero_equal_root_fails(self):
        # The kept window [5, 5, 5] is constant and the row is not: the
        # equal scheme's root is exactly 0, and the row fails.
        s = validate_scheme(0.2, 0.2, 0.2, 0.2)
        ys = np.array([[0.0, 5.0, 5.0, 5.0, 10.0]])
        t, constant = row_moments(ys, ys * ys, [s])
        loc, scale, _, pair, _, _ = next(solve_rows(
            t, constant, Family.NORMAL, [s], None))
        assert not constant[0] and pair.ft[0] == 0.0
        assert np.isnan(scale[0]) and np.isnan(loc[0])
        with pytest.raises(EstimationError, match="update trimming"):
            fit(ys[0], s)

    def test_no_root_names_constant_data_only_where_constant(self):
        # A constant kept window in data that are not constant is a
        # missing root; only constant data are named as such.
        s = validate_scheme(0.2, 0.2, 0.2, 0.2)
        with pytest.raises(EstimationError) as info:
            fit([0.0, 5.0, 5.0, 5.0, 10.0], s)
        assert str(info.value) == ("no admissible scale candidate: update "
                                   "trimming proportions")
        with pytest.raises(EstimationError) as info:
            fit([5.0] * 5, s)
        assert str(info.value) == ("no admissible scale candidate: "
                                   "constant data")

    @given(family=st.sampled_from(list(Family)),
           quad=st.sampled_from([(0.1, 0.1, 0.1, 0.1), (0.05, 0.05, 0.0, 0.1),
                                 (0.1, 0.1, 0.2, 0.0), (0.0, 0.0, 0.0, 0.0),
                                 (0.0, 0.2, 0.0, 0.3), (0.0, 0.3, 0.2, 0.1)]),
           rows=st.lists(st.tuples(
               st.floats(-50.0, 50.0), st.floats(-0.5, 0.5),
               st.one_of(st.just(math.nan), st.floats(0.0, 1e3)),
               st.booleans()), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_solve_rows_fails_only_rootless_and_constant_rows(
            self, family, quad, rows):
        # `solve_scale` gives a positive scale or NaN, at any moments (a
        # negative discriminant too), on every scheme ordering and with
        # references that may be NaN; so `solve_rows` fails the rows of
        # the rule of `fit_rows_by_slices`, constant | ~(scale > 0).
        s = validate_scheme(*quad)
        c = eta_constants(family, s)
        t1, gap, ref, constant = (np.array(v) for v in zip(*rows))
        t2 = c.eta_r * t1 * t1 + gap * (1.0 + t1 * t1)
        raw = solve_scale(t1, t2, c, lambda: ref)[0]
        assert ((raw > 0.0) | np.isnan(raw)).all()
        expected = np.where(constant | ~(raw > 0.0), np.nan, raw)
        loc, scale = next(solve_rows(np.array([[t1, t2]]), constant, family,
                                     [s], lambda: ref))[:2]
        assert np.array_equal(scale, expected, equal_nan=True)
        assert np.array_equal(loc, t1 - c.m1_11 * expected, equal_nan=True)


class TestSegmentSums:
    """`row_moments` over a scheme set sums each segment between the
    schemes' cuts once; every scheme's moments are its slice means to
    rounding, exactly where its window is one segment, and no value
    beyond the cuts reaches them."""

    @staticmethod
    def _sorted_block(family, n, rows, seed):
        params = (ParameterVector(sigma=2.0, beta=5.0)
                  if family is Family.FRECHET
                  else ParameterVector(theta=0.1, sigma=5.0))
        y = SPECS[family].draw(params,
                               simulation._uniforms(seed, 0, 0, rows, n))
        y.sort(axis=1)
        return y

    @staticmethod
    def _exact_windows(ys, squares, family, schemes):
        """Check every scheme's moments against its slice means; returns
        how many windows were one segment, and so matched exactly."""
        n = ys.shape[1]
        ref = SPECS[family].mle_rows(ys)[1]
        constants = [eta_constants(family, s) for s in schemes]
        windows = [(trim_counts(n, s.a1, s.b1), trim_counts(n, s.a2, s.b2))
                   for s in schemes]
        cuts = {c for w in windows for lo, hi in w for c in (lo, n - hi)}
        fits = solve_rows(*row_moments(ys, squares, schemes), family,
                          schemes, lambda: ref)
        exact = 0
        for s, c, w, got in zip(schemes, constants, windows, fits):
            want = fit_rows_by_slices(ys, squares, s, c, lambda: ref)
            for k, (lo, hi), values in ((4, w[0], ys), (5, w[1], squares)):
                size = np.abs(values[:, lo:n - hi]).mean(axis=1)
                assert (np.abs(got[k] - want[k]) <= 1e-15 * size).all()
                if not any(lo < cut < n - hi for cut in cuts):
                    assert np.array_equal(got[k], want[k])
                    exact += 1
        return exact

    @pytest.mark.parametrize("family, n, rows", [
        (Family.NORMAL, 100, 1310), (Family.FRECHET, 1000, 131),
        (Family.NORMAL, 20, 200), (Family.FRECHET, 20, 200)])
    def test_schemes_match_slice_means(self, family, n, rows):
        # Among the study schemes every window spans several segments;
        # alone, an equal scheme's windows are one segment each.
        ys = self._sorted_block(family, n, rows, 4)
        squares = ys * ys
        self._exact_windows(ys, squares, family, STUDY_SCHEMES)
        alone = sum(self._exact_windows(ys, squares, family, [s])
                    for s in STUDY_SCHEMES)
        assert alone >= 2 * sum(s.tag is SchemeTag.EQUAL
                                for s in STUDY_SCHEMES)

    @pytest.mark.parametrize("family, n", [(Family.NORMAL, 100),
                                           (Family.FRECHET, 1000)])
    def test_values_beyond_the_cuts_change_nothing(self, family, n):
        # The smallest cut is above 0 and the largest below n: values
        # moved to +-1e300 there (squares to inf) reach no moment.
        schemes = [validate_scheme(*q) for q in (
            (0.05, 0.05, 0.05, 0.05), (0.1, 0.05, 0.05, 0.1),
            (0.05, 0.1, 0.1, 0.05), (0.1, 0.1, 0.2, 0.02),
            (0.15, 0.15, 0.02, 0.3))]
        lo, top = trim_counts(n, 0.02, 0.02)
        hi = n - top
        x = self._sorted_block(family, n, 1, 9)[0]
        moved = x.copy()
        moved[:lo], moved[hi:] = -1e300, 1e300
        ys = np.array([x, moved])
        with np.errstate(over="ignore"):
            squares = ys * ys
        for _, _, _, pair, t1, t2 in solve_rows(
                *row_moments(ys, squares, schemes), family, schemes,
                lambda: np.ones(2)):
            assert np.isfinite(t2).all()
            assert t1[0] == t1[1] and t2[0] == t2[1]
            assert pair.minus[0] == pair.minus[1]
            assert pair.plus[0] == pair.plus[1]


PROPORTIONS = (0.0, 0.02, 1 / 30, 0.05, 0.1, 0.15, 0.2)


class TestContaminationInvariance:
    """Criterion 7 as a property: order statistics beyond both trimming
    windows, moved to arbitrary more extreme values, leave the trimmed
    moments, both scale candidates and, for equal schemes (which never
    consult the non-robust MLE), the estimates bit-identical."""

    @given(n=st.integers(min_value=20, max_value=300),
           quad=st.tuples(*[st.sampled_from(PROPORTIONS)] * 4),
           frechet=st.booleans(),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           spread=st.sampled_from([1e-8, 1.0, 1e3, 1e12]))
    @example(n=20, quad=(0.2, 0.0, 0.2, 0.05), frechet=True, seed=2389,
             spread=1000.0)
    @settings(max_examples=150, deadline=None)
    def test_moved_extremes_change_nothing(self, n, quad, frechet, seed,
                                           spread):
        try:
            s = validate_scheme(*quad)
        except ValueError:
            assume(False)
        family = Family.FRECHET if frechet else Family.NORMAL
        spec = SPECS[family]
        rng = np.random.default_rng(seed)
        x = np.sort(sample(family, random_params(rng, family), n, rng))
        lo = math.floor(n * min(s.a1, s.a2) * (1 + 1e-12))
        hi = n - math.floor(n * min(s.b1, s.b2) * (1 + 1e-12))
        # More extreme by a random amount: shifted for normal data,
        # scaled (a shift of the logs) for positive Frechet data.
        move = rng.exponential(spread, n)
        moved = x.copy()
        if frechet:
            moved[:lo] /= 1.0 + move[:lo]
            moved[hi:] *= 1.0 + move[hi:]
        else:
            moved[:lo] -= move[:lo]
            moved[hi:] += move[hi:]
        rng.shuffle(moved)
        y = spec.transform(np.array([x, moved]))
        ys = np.sort(y, axis=1)
        _, scale, _, pair, t1, t2 = next(solve_rows(
            *row_moments(ys, ys * ys, [s]), family, [s],
            lambda: spec.mle_rows(y)[1]))
        assert t1[0] == t1[1] and t2[0] == t2[1]
        assert pair.minus[0] == pair.minus[1]
        assert pair.plus[0] == pair.plus[1]
        equal = s.tag is SchemeTag.EQUAL
        if equal:
            assert scale[0] == scale[1]

        def single(data):
            try:
                r = fit(data, s, family)
            except EstimationError:  # no admissible candidate, in both
                return None
            return r.t1, r.t2, r.params if equal else None

        one = single(x)
        assert single(moved) == one
        assert one is None or one[:2] == (t1[0], t2[0])
