import ctypes
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimmoments import estimators, simulation
from trimmoments.families import EstimationError
from trimmoments.models import SPECS, Family, ParameterVector
from trimmoments.moments import validate_scheme
from trimmoments.simulation import (
    MLE_LABEL,
    StudyConfig,
    finite_re,
    run_study,
)
from conftest import STUDY_SCHEMES

NORMAL = ParameterVector(theta=0.1, sigma=5.0)
FRECHET = ParameterVector(sigma=2.0, beta=5.0)


def _config(**kw):
    base = dict(family=Family.NORMAL, params=NORMAL, n=100,
                schemes=[validate_scheme(0.05, 0.05, 0.00, 0.10)],
                replicates=300, repetitions=2, seed=0)
    base.update(kw)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError):
            _config(replicates=0).validate()

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            _config(n=5).validate()

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            _config(repetitions=0).validate()

    def test_negative_seed_rejected(self):
        # Rejected before any draw, with a message of the study's own.
        with pytest.raises(ValueError, match="seed"):
            run_study(_config(seed=-1))

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LOGNORMAL])
    def test_zero_true_parameter_rejected(self, family):
        # The study reports estimate/truth ratios, undefined at theta = 0.
        cfg = _config(family=family, params=ParameterVector(theta=0.0, sigma=5.0))
        with pytest.raises(ValueError, match="nonzero"):
            cfg.validate()


def _numpy_streams(seed, rep, start, stop, n):
    """numpy's own stream of each replicate: the reference `_uniforms`
    must reproduce bit for bit."""
    u = np.empty((stop - start, n))
    for i, k in enumerate(range(start, stop)):
        ss = np.random.SeedSequence((seed, rep, k))
        u[i] = np.random.default_rng(ss).random(n)
    return u


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seeding(seed, rep, k):
    """numpy's PCG64 seeding from SeedSequence((seed, rep, k)), in
    Python ints: pcg_setseq_128_srandom_r on generate_state's words."""
    s0, s1, s2, s3 = (int(w) for w in np.random.SeedSequence(
        (seed, rep, k)).generate_state(4, np.uint64))
    inc = ((s2 << 64 | s3) << 1 | 1) % 2 ** 128
    return ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) % 2 ** 128, inc


def _halves(state, inc):
    """A state and increment as four 64-bit words, low word first."""
    mask = 2 ** 64 - 1
    return [state & mask, state >> 64, inc & mask, inc >> 64]


class TestUniforms:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 128 - 1), rep=st.integers(0, 2 ** 33 - 1),
           start=st.integers(0, 2 ** 64 - 20), rows=st.integers(0, 20),
           n=st.integers(1, 300))
    @example(seed=0, rep=0, start=0, rows=20, n=100)
    @example(seed=2 ** 32 - 1, rep=1, start=0, rows=5, n=7)
    @example(seed=2 ** 32, rep=2, start=3, rows=5, n=7)
    @example(seed=2 ** 64, rep=0, start=2 ** 32 - 2, rows=5, n=7)
    @example(seed=901, rep=2 ** 32, start=0, rows=5, n=7)
    def test_rows_are_seed_sequence_streams(self, seed, rep, start, rows, n):
        u = simulation._uniforms(seed, rep, start, start + rows, n)
        assert np.array_equal(
            u, _numpy_streams(seed, rep, start, start + rows, n))

    @pytest.mark.parametrize("seed", [7, 2 ** 32 + 9, 2 ** 64 + 2 ** 40 + 3])
    @pytest.mark.parametrize("rep", [2, 2 ** 33 + 1, 2 ** 65 + 5])
    def test_states_are_numpy_seeding_in_python_ints(self, seed, rep):
        # k around 2**32 and 2**64 - 1, where the entropy gains a word.
        ks = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 2,
              2 ** 64 - 1]
        states = simulation._pcg64_states(seed, rep,
                                          np.array(ks, dtype=np.uint64))
        assert states.shape == (len(ks), 4) and states.dtype == np.uint64
        for k, row in zip(ks, states.tolist()):
            state, inc = _pcg64_seeding(seed, rep, k)
            assert row == _halves(state, inc)
            numpy_state = np.random.PCG64(
                np.random.SeedSequence((seed, rep, k))).state["state"]
            assert (state, inc) == (numpy_state["state"], numpy_state["inc"])

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2)])
    def test_probe_accepts_either_word_order(self, order):
        halves = _halves(simulation._PROBE_STATE, simulation._PROBE_INC)
        struct = (ctypes.c_uint64 * 4)(*(halves[c] for c in order))
        assert simulation._struct_order(struct) == order

    @pytest.mark.parametrize("order", [(2, 3, 0, 1), (0, 1, 3, 2),
                                       (1, 0, 2, 3), (3, 2, 1, 0), None])
    def test_probe_rejects_an_unknown_word_order(self, order):
        # None: a struct of zeros, as if the pointer missed the state.
        halves = _halves(simulation._PROBE_STATE, simulation._PROBE_INC)
        struct = (ctypes.c_uint64 * 4)(
            *(halves[c] for c in order or ()))
        with pytest.raises(RuntimeError, match="unknown layout"):
            simulation._struct_order(struct)


class TestFiniteRe:
    def test_degenerate_estimates(self):
        est = [(0.1, 5.0)] * 50
        with pytest.raises(ValueError):
            finite_re(Family.NORMAL, NORMAL, est, 100)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            finite_re(Family.NORMAL, NORMAL, [(1.0, 2.0)], 100)

    def test_overflowing_cross_moments_are_singular(self):
        # The squared errors overflow: singular, without a RuntimeWarning.
        est = [(1e200, 1.0), (-1e200, 2.0), (3e200, 1.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular"):
                finite_re(Family.NORMAL, NORMAL, est, 100)

    def test_mle_scores_about_one(self):
        from trimmoments.estimators import mle_normal
        from trimmoments.models import sample
        est = []
        for k in range(2000):
            x = sample(Family.NORMAL, NORMAL, 1000, (55, k))
            est.append(mle_normal(x))
        assert finite_re(Family.NORMAL, NORMAL, est, 1000) == pytest.approx(
            0.994, abs=0.05)


class TestRunStudy:
    def test_deterministic(self):
        r1 = run_study(_config())
        r2 = run_study(_config())
        for a, b in zip(r1.rows, r2.rows):
            assert a == b

    def test_mle_row_present_and_unbiased(self):
        res = run_study(_config(replicates=500))
        row = res.row(MLE_LABEL)
        assert row.mean_ratio_2 == pytest.approx(1.0, abs=0.02)
        assert row.failures == 0

    def test_unknown_label(self):
        res = run_study(_config())
        with pytest.raises(KeyError):
            res.row("nope")

    def test_frechet_sigma_bias_ordering(self):
        # At n = 100 the Frechet scale's relative bias is higher under
        # the condition-(12) member of each paired row than under its
        # condition-(8) partner.
        pairs = [
            ((0.05, 0.05, 0.10, 0.00), (0.05, 0.05, 0.00, 0.10)),
            ((0.10, 0.10, 0.20, 0.00), (0.10, 0.10, 0.00, 0.20)),
        ]
        schemes = [validate_scheme(*s) for pair in pairs for s in pair]
        cfg = StudyConfig(Family.FRECHET, FRECHET, 100, schemes,
                          replicates=400, repetitions=2, seed=3)
        res = run_study(cfg)
        for s12, s8 in pairs:
            r12 = res.row(validate_scheme(*s12).label())
            r8 = res.row(validate_scheme(*s8).label())
            assert r12.mean_ratio_2 >= r8.mean_ratio_2

    def test_lognormal_study_is_normal_study_on_logs(self):
        # The lognormal draws are exp of the normal draws, and the
        # lognormal model is fitted on logs: both studies must agree.
        schemes = [validate_scheme(0.05, 0.05, 0.00, 0.10),
                   validate_scheme(0.10, 0.10, 0.10, 0.10)]
        params = ParameterVector(theta=1.0, sigma=0.5)
        rows = {}
        for family in (Family.NORMAL, Family.LOGNORMAL):
            cfg = StudyConfig(family, params, 200, schemes,
                              replicates=200, repetitions=2, seed=5)
            rows[family] = run_study(cfg).rows
        for a, b in zip(rows[Family.NORMAL], rows[Family.LOGNORMAL]):
            assert a.label == b.label and a.failures == b.failures
            for name in ("mean_ratio_1", "mean_ratio_2", "re", "sd_ratio_1",
                         "sd_ratio_2", "sd_re"):
                assert getattr(b, name) == pytest.approx(
                    getattr(a, name), rel=1e-9, abs=1e-9), (a.label, name)

    def test_re_trends_toward_are(self):
        from trimmoments.asymptotics import are
        scheme = validate_scheme(0.05, 0.05, 0.00, 0.10)
        limit = are(Family.NORMAL, NORMAL, scheme).are
        res = {}
        for n in (100, 1000):
            cfg = _config(n=n, replicates=800, repetitions=2, seed=9)
            res[n] = run_study(cfg).row(scheme.label()).re
        assert res[1000] == pytest.approx(limit, abs=0.05)

    def test_block_budget_does_not_change_rows(self, monkeypatch):
        # Blocks of 3 rows (the last one short) give the rows of one block.
        schemes = [validate_scheme(0.05, 0.05, 0.00, 0.10),
                   validate_scheme(0.10, 0.10, 0.10, 0.10)]
        for family, params in ((Family.NORMAL, NORMAL),
                                (Family.FRECHET, FRECHET)):
            cfg = StudyConfig(family, params, 60, schemes, replicates=100,
                              repetitions=2, seed=4)
            whole = run_study(cfg).rows
            monkeypatch.setattr(simulation, "BLOCK_ELEMENTS", 3 * 60 + 7)
            assert run_study(cfg).rows == whole
            monkeypatch.undo()

    def test_block_budget_does_not_change_rows_on_study_schemes(
            self, monkeypatch):
        # The reference schemes cut n = 100 into 14 segments, and 20 of
        # their 24 windows span 8 or more.  Blocks of one row, as a
        # study's last block may be, must still add each window's segment
        # sums left to right: numpy sums a column of 8 or more pairwise.
        for family, params in ((Family.NORMAL, NORMAL),
                               (Family.FRECHET, FRECHET)):
            cfg = StudyConfig(family, params, 100, STUDY_SCHEMES,
                              replicates=100, repetitions=3, seed=6)
            whole = run_study(cfg).rows
            monkeypatch.setattr(simulation, "BLOCK_ELEMENTS", 100 + 7)
            assert run_study(cfg).rows == whole
            monkeypatch.undo()

    def test_solve_scale_runs_once_per_scheme_and_repetition(
            self, monkeypatch):
        # Four blocks of 131 rows a repetition: the moments come per
        # block, but each scheme is solved once over all 400 rows.
        calls = []
        solve = estimators.solve_scale

        def counted(t1, *args, **kwargs):
            calls.append(len(t1))
            return solve(t1, *args, **kwargs)

        monkeypatch.setattr(estimators, "solve_scale", counted)
        schemes = STUDY_SCHEMES[:3]
        cfg = StudyConfig(Family.FRECHET, FRECHET, 1000, schemes,
                          replicates=400, repetitions=2, seed=3)
        run_study(cfg)
        assert calls == [400] * (len(schemes) * 2)

    def test_study_memory_is_its_workspace_and_repetition_arrays(self):
        # One mc-frechet round: n = 1000 (blocks of 131 rows), 2000
        # replicates, the 12 reference schemes.  Its traced peak is at
        # most the block workspace (the uniforms and the MLE's two
        # halves), the repetition's MLE, t1, t2 and constant-row flags,
        # and a slack of one block (the MLE's shrinking copy of its
        # iterated rows) plus 512 KiB (the solve and estimates over the
        # repetition's rows, and each block's row sums).
        cfg = StudyConfig(Family.FRECHET, FRECHET, 1000, STUDY_SCHEMES,
                          replicates=2000, repetitions=1, seed=8)
        run_study(cfg._replace(replicates=100))  # fills the constant caches
        block = (simulation.BLOCK_ELEMENTS // cfg.n) * cfg.n * 8
        workspace = 3 * block
        repetition = cfg.replicates * (8 * (2 + 2 * len(STUDY_SCHEMES)) + 1)
        slack = block + 2 ** 19
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_study(cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= workspace + repetition + slack

    def test_failed_mle_is_counted_not_fatal(self, monkeypatch):
        # Replicate 0 of each repetition is squeezed toward its median
        # (not constant), and its MLE is made to fail.  That fails the
        # MLE row and the scheme whose proximity rule needs it there
        # (0.05,0.05,0,0.1: both candidates positive); the other nested
        # scheme's minus root is negative and the equal scheme never
        # asks, so they keep it.
        draw = simulation._uniforms
        spec = SPECS[Family.FRECHET]

        def first_squeezed(seed, rep, start, stop, n, out):
            u = draw(seed, rep, start, stop, n)
            if start == 0:
                u[0] = 0.5 + 0.1 * (u[0] - 0.5)
            return u

        def first_fails(y, work):
            loc, scale = spec.mle_rows(y)
            loc[0] = scale[0] = np.nan
            return loc, scale

        monkeypatch.setattr(simulation, "_uniforms", first_squeezed)
        monkeypatch.setitem(SPECS, Family.FRECHET,
                            spec._replace(mle_rows=first_fails))
        schemes = [validate_scheme(0.05, 0.05, 0.00, 0.10),
                   validate_scheme(0.10, 0.10, 0.20, 0.00),
                   validate_scheme(0.10, 0.10, 0.10, 0.10)]
        cfg = StudyConfig(Family.FRECHET, FRECHET, 100, schemes,
                          replicates=200, repetitions=2, seed=1)
        rows = run_study(cfg).rows
        assert [r.failures for r in rows] == [2, 2, 0, 0]
        for r in rows:
            assert np.isfinite([r.mean_ratio_1, r.mean_ratio_2, r.re]).all()

    def test_constant_replicate_fails_every_estimator(self, monkeypatch):
        # A constant replicate has no MLE and no scale on any scheme.
        draw = simulation._uniforms

        def first_constant(seed, rep, start, stop, n, out):
            u = draw(seed, rep, start, stop, n)
            if start == 0:
                u[0] = 0.5
            return u

        monkeypatch.setattr(simulation, "_uniforms", first_constant)
        schemes = [validate_scheme(0.05, 0.05, 0.00, 0.10),
                   validate_scheme(0.10, 0.10, 0.20, 0.00),
                   validate_scheme(0.10, 0.10, 0.10, 0.10)]
        cfg = StudyConfig(Family.FRECHET, FRECHET, 100, schemes,
                          replicates=200, repetitions=2, seed=1)
        assert [r.failures for r in run_study(cfg).rows] == [2, 2, 2, 2]

    def test_constant_normal_replicate_fails_the_mle(self, monkeypatch):
        # Replicate 0 is 0.1 throughout: its 1/n spread is a rounding
        # residue (2.8e-17), not a likelihood maximum.
        draw = simulation._uniforms

        def first_constant(seed, rep, start, stop, n, out):
            u = draw(seed, rep, start, stop, n)
            if start == 0:
                u[0] = 0.5
            return u

        monkeypatch.setattr(simulation, "_uniforms", first_constant)
        cfg = _config(schemes=[validate_scheme(0.10, 0.10, 0.10, 0.10)],
                      replicates=200, seed=1)
        assert [r.failures for r in run_study(cfg).rows] == [2, 2]

    def test_failure_rate_limit_raises(self, monkeypatch):
        # Two of 100 replicates constant: 2% MLE failures > the 1% limit.
        draw = simulation._uniforms

        def two_constant(seed, rep, start, stop, n, out):
            u = draw(seed, rep, start, stop, n)
            if start == 0:
                u[:2] = 0.5
            return u

        monkeypatch.setattr(simulation, "_uniforms", two_constant)
        cfg = StudyConfig(Family.FRECHET, FRECHET, 100,
                          [validate_scheme(0.10, 0.10, 0.10, 0.10)],
                          replicates=100, repetitions=1, seed=1)
        with pytest.raises(EstimationError, match="MLE failed on 2.0%"):
            run_study(cfg)

    def test_mle_failure_limit_names_the_likelihood(self, monkeypatch):
        # The MLE row has no trimming to update: past the limit, its
        # message names the missing likelihood maximum.
        draw = simulation._uniforms

        def two_constant(seed, rep, start, stop, n, out):
            u = draw(seed, rep, start, stop, n)
            if start == 0:
                u[:2] = 0.5
            return u

        monkeypatch.setattr(simulation, "_uniforms", two_constant)
        cfg = StudyConfig(Family.FRECHET, FRECHET, 100,
                          [validate_scheme(0.10, 0.10, 0.10, 0.10)],
                          replicates=100, repetitions=1, seed=1)
        with pytest.raises(EstimationError, match=r"MLE failed on 2\.0%.*; "
                           r"no likelihood maximum: constant replicates "
                           r"or no convergence$"):
            run_study(cfg)

    def test_scheme_failure_limit_names_the_missing_root(self, monkeypatch):
        # Replicates 0 and 1 draw u = 0.5 but at their two extremes: the
        # equal scheme's kept window is constant at y = theta, so its
        # root is 0, while their MLE is fine.  Past the limit, the
        # scheme's message names the missing root.
        draw = simulation._uniforms

        def two_flat_windows(seed, rep, start, stop, n, out):
            u = draw(seed, rep, start, stop, n)
            if start == 0:
                u[:2] = 0.5
                u[:2, 0], u[:2, -1] = 0.25, 0.75
            return u

        monkeypatch.setattr(simulation, "_uniforms", two_flat_windows)
        cfg = _config(params=ParameterVector(theta=1.0, sigma=5.0),
                      schemes=[validate_scheme(0.10, 0.10, 0.10, 0.10)],
                      replicates=100, repetitions=1, seed=1)
        with pytest.raises(EstimationError,
                           match=r"\(0\.1,0\.1\)/\(0\.1,0\.1\) failed on "
                           r"2\.0%.*; no admissible scale candidate: "
                           r"update trimming proportions$"):
            run_study(cfg)

    def test_overflowed_sigma_names_its_cause(self):
        # Every MLE row converges, but sigma = exp(location) overflows on
        # most of the MLE's failures: the message says so.
        cfg = StudyConfig(Family.FRECHET,
                          ParameterVector(sigma=5.0, beta=1e4), 50,
                          [validate_scheme(0.0, 0.0, 0.0, 0.0)],
                          replicates=200, repetitions=2, seed=0)
        with pytest.raises(EstimationError, match=r"MLE failed on 29\.8%.*; "
                           r"parameters out of range: the reported "
                           r"sigma = exp\(location\) overflows$"):
            run_study(cfg)

    def test_singular_re_is_nan_not_fatal(self, monkeypatch):
        def singular(*args):
            raise ValueError("empirical cross-moment matrix is singular")

        monkeypatch.setattr(simulation, "finite_re", singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_study(_config()).rows
        for r in rows:
            assert np.isnan(r.re) and np.isnan(r.sd_re)
            assert r.failures == 0 and np.isfinite(r.mean_ratio_1)
