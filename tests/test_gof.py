import math

import numpy as np
import pytest
from scipy.stats import invweibull, lognorm

from trimmoments.gof import (
    DATA_SCALE,
    gof_report,
    load_dataset,
    modify_dataset,
)
from trimmoments.models import Family
from trimmoments.moments import validate_scheme

T3 = validate_scheme(1 / 30, 1 / 30, 1 / 30, 1 / 30)


@pytest.fixture(scope="module")
def damages():
    return load_dataset() * DATA_SCALE


class TestDataset:
    def test_shape_and_maximum(self):
        x = load_dataset()
        assert x.size == 30
        assert np.max(x) == pytest.approx(72.303)
        assert np.all(x > 0.0)
        assert np.all(np.diff(np.sort(x)) >= 0.0)


class TestFitStatistic:
    def test_nonpositive_data_rejected(self):
        for family in (Family.LOGNORMAL, Family.FRECHET):
            with pytest.raises(ValueError, match="must be positive"):
                gof_report(family, [1.0, -2.0])

    def test_lognormal_mle_fit_value(self, damages):
        rep = gof_report(Family.LOGNORMAL, damages, None)
        assert rep.fit == pytest.approx(0.1036, abs=0.01)

    def test_frechet_mle_fit_value(self, damages):
        rep = gof_report(Family.FRECHET, damages, None)
        assert rep.fit == pytest.approx(0.1277, abs=0.01)

    def test_scale_equivariance_of_refitted_lognormal(self, damages):
        r1 = gof_report(Family.LOGNORMAL, damages, None)
        r2 = gof_report(Family.LOGNORMAL, damages * 3.7, None)
        assert r1.fit == pytest.approx(r2.fit, abs=1e-12)


def _scipy_law(family, params):
    if family is Family.LOGNORMAL:
        return lognorm(s=params.sigma, scale=math.exp(params.theta))
    return invweibull(c=1.0 / params.beta, scale=params.sigma)


class TestGofReport:
    @pytest.mark.parametrize("modified", [False, True],
                             ids=["original", "modified"])
    @pytest.mark.parametrize("scheme", [None, T3], ids=["mle", "t3"])
    @pytest.mark.parametrize("family", [Family.LOGNORMAL, Family.FRECHET],
                             ids=["lognormal", "frechet"])
    def test_matches_scipy_oracle(self, damages, family, scheme, modified):
        # FIT on the log scale from the scipy quantile function, and AIC
        # and BIC from the scipy log-density, at the report's own params.
        # The bundled damages are sorted; the report gets them reversed.
        x = modify_dataset(damages) if modified else damages
        rep = gof_report(family, x[::-1], scheme)
        law = _scipy_law(family, rep.params)
        n = x.size
        u = (np.arange(1, n + 1) - 0.5) / n
        fit = np.mean(np.abs(np.log(law.ppf(u)) - np.log(np.sort(x))))
        ll = np.sum(law.logpdf(x))
        assert rep.fit == pytest.approx(fit, rel=1e-10)
        assert rep.aic == pytest.approx(4.0 - 2.0 * ll, rel=1e-10)
        assert rep.bic == pytest.approx(2.0 * math.log(n) - 2.0 * ll,
                                        rel=1e-10)

    def test_normal_family_rejected(self, damages):
        # The case study compares the two log families; gof_report is a
        # library call, and the CLI never passes it the normal family.
        for scheme in (None, T3):
            with pytest.raises(ValueError, match="lognormal or Frechet"):
                gof_report(Family.NORMAL, damages, scheme)


class TestInformationCriteria:
    def test_aic_bic_gap_identity(self, damages):
        rep = gof_report(Family.LOGNORMAL, damages, None)
        assert rep.bic - rep.aic == pytest.approx(
            2.0 * math.log(30) - 4.0, abs=1e-9)

    def test_lognormal_mle_values(self, damages):
        rep = gof_report(Family.LOGNORMAL, damages, None)
        assert rep.aic == pytest.approx(1446.0, abs=1.0)
        assert rep.bic == pytest.approx(1449.0, abs=1.0)

    def test_mle_minimizes_aic_within_model(self, damages):
        mle = gof_report(Family.LOGNORMAL, damages, None)
        mtm = gof_report(Family.LOGNORMAL, damages, T3)
        assert mle.aic <= mtm.aic


class TestModifyDataset:
    def test_simple(self):
        assert list(modify_dataset([1.0, 2.0, 3.0])) == [1.0, 2.0, 30.0]

    def test_hurricane_max(self, damages):
        mod = modify_dataset(damages)
        assert np.max(mod) == pytest.approx(723.03 * DATA_SCALE / 1e9 * 1e9)
        assert np.max(mod) / DATA_SCALE == pytest.approx(723.03)

    def test_not_idempotent(self):
        twice = modify_dataset(modify_dataset([1.0, 2.0]))
        assert max(twice) == pytest.approx(200.0)


class TestRobustnessWorkflow:
    def test_trimmed_estimates_bit_identical_under_modification(self, damages):
        mod = modify_dataset(damages)
        for family in (Family.LOGNORMAL, Family.FRECHET):
            orig = gof_report(family, damages, T3)
            after = gof_report(family, mod, T3)
            assert orig.params == after.params

    def test_mle_fit_degrades(self, damages):
        mod = modify_dataset(damages)
        before = gof_report(Family.LOGNORMAL, damages, None).fit
        after = gof_report(Family.LOGNORMAL, mod, None).fit
        assert before == pytest.approx(0.1036, abs=0.01)
        assert after == pytest.approx(0.2932, abs=0.01)


class TestTable3SpotRows:
    def test_lognormal_mle_row(self, damages):
        rep = gof_report(Family.LOGNORMAL, damages, None)
        assert rep.params.theta == pytest.approx(22.80, abs=0.01)
        assert rep.params.sigma == pytest.approx(0.83, abs=0.01)

    def test_frechet_mle_row(self, damages):
        rep = gof_report(Family.FRECHET, damages, None)
        assert rep.params.beta == pytest.approx(0.72, abs=0.01)
        assert rep.params.sigma / DATA_SCALE == pytest.approx(5.35, abs=0.01)

    def test_t3_lognormal_row(self, damages):
        rep = gof_report(Family.LOGNORMAL, damages, T3)
        assert rep.params.theta == pytest.approx(22.77, abs=0.01)
        assert rep.params.sigma == pytest.approx(0.85, abs=0.01)
        assert rep.fit == pytest.approx(0.1013, abs=0.01)
