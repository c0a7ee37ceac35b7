import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimmoments import asymptotics, gof, simulation
from trimmoments.cli import _parse_grid, main
from trimmoments.estimators import mle_normal
from trimmoments.models import Family
from trimmoments.moments import eta_constants, validate_scheme
from conftest import clear_caches
from oracles import correlation_gap


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFit:
    def test_lognormal_untrimmed_bundled(self, capsys):
        code, out, _ = run(capsys, "fit", "--model", "lognormal",
                           "--data", "hurricane",
                           "--a1", "0", "--b1", "0", "--a2", "0", "--b2", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["estimates"]["theta"] == pytest.approx(22.80, abs=0.01)
        assert doc["estimates"]["sigma"] == pytest.approx(0.83, abs=0.01)
        assert doc["branch"] == "equal-trim"
        assert doc["breakdown_points"] == {"lower": 0.0, "upper": 0.0}

    def test_lognormal_untrimmed_sigma_is_the_mle_sigma(self, capsys):
        # Untrimmed, c_1 = 0 and c_2 = E Z^2 = 1, so sigma is the SD of
        # the log data with the 1/n variance, the normal MLE's sigma.
        code, out, _ = run(capsys, "fit", "--model", "lognormal",
                           "--data", "hurricane",
                           "--a1", "0", "--b1", "0", "--a2", "0", "--b2", "0")
        assert code == 0
        x = gof.load_dataset() * gof.DATA_SCALE
        mle_sigma = mle_normal(np.log(x))[1]
        assert json.loads(out)["estimates"]["sigma"] == pytest.approx(
            mle_sigma, rel=1e-12, abs=0.0)

    def test_frechet_t3_scheme(self, capsys):
        args = ["fit", "--model", "frechet", "--data", "hurricane"]
        for flag in ("--a1", "--b1", "--a2", "--b2"):
            args += [flag, "1/30"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["estimates"]["beta"] == pytest.approx(0.70, abs=0.01)
        assert doc["estimates"]["sigma_scaled"] == pytest.approx(5.39, abs=0.01)

    def test_missing_file_exit_1_no_partial_output(self, capsys, tmp_path):
        out_file = tmp_path / "result.json"
        code, out, err = run(capsys, "fit", "--model", "normal",
                             "--data", "/nonexistent/file.csv",
                             "--a1", "0", "--b1", "0", "--a2", "0", "--b2", "0",
                             "-o", str(out_file))
        assert code == 1
        assert not out_file.exists()
        assert "I/O error" in err

    def test_invalid_scheme_exit_2(self, capsys):
        code, _, err = run(capsys, "fit", "--model", "normal",
                           "--data", "hurricane",
                           "--a1", "0", "--b1", "0.1", "--a2", "0.05",
                           "--b2", "0.2")
        assert code == 2
        assert "validation error" in err

    def test_plain_csv_with_scale(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        path.write_text("value\n" + "\n".join(
            f"{v:.6f}" for v in rng.normal(10.0, 2.0, size=200)))
        code, out, _ = run(capsys, "fit", "--model", "normal",
                           "--data", str(path),
                           "--a1", "0.05", "--b1", "0.05",
                           "--a2", "0.05", "--b2", "0.05")
        assert code == 0
        doc = json.loads(out)
        assert doc["estimates"]["theta"] == pytest.approx(10.0, abs=0.5)
        assert doc["estimates"]["sigma"] == pytest.approx(2.0, abs=0.5)
        assert doc["standard_errors"]["sigma"] > 0.0


class TestAre:
    def test_grid_range_stops_at_its_stop(self, capsys):
        # A range keeps the steps at or below its inclusive stop, read
        # through the rounding of the division, so 0:1:0.1 keeps 1.0.
        assert _parse_grid("0:1:0.35") == [0.0, 0.35, 0.7]
        assert len(_parse_grid("-1:1:0.7")) == 3
        assert _parse_grid("20:30:7") == [20.0, 27.0]
        assert _parse_grid("20:30:6") == [20.0, 26.0]
        grid = _parse_grid("0:1:0.1")
        assert len(grid) == 11 and grid[-1] == 1.0
        code, out, _ = run(capsys, "are", "--model", "normal", "--sigma",
                           "1", "--theta=0:1:0.35",
                           "--scheme", "0.1,0.1,0.1,0.1")
        assert code == 0
        assert out.splitlines()[0] == "scheme,theta=0,theta=0.35,theta=0.7"

    def test_equal_scheme_row_constant(self, capsys):
        code, out, _ = run(capsys, "are", "--model", "normal", "--sigma", "3",
                           "--theta=-25:25:5",
                           "--scheme", "0.02,0.02,0.02,0.02")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")[-11:]
        assert len(cells) == 11
        assert all(c == "0.943" for c in cells)

    def test_frechet_row_matches_table(self, capsys):
        code, out, _ = run(capsys, "are", "--model", "frechet", "--sigma", "2",
                           "--beta", "0.1,0.2,0.5,1,2,5,10,15,25",
                           "--scheme", "0.05,0.05,0,0.10")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")[-9:]
        assert row == ["0.458", "0.004", "0.610", "0.759", "0.809",
                       "0.833", "0.840", "0.842", "0.844"]

    def test_missing_scheme_exit_2(self, capsys):
        code, _, err = run(capsys, "are", "--model", "normal", "--sigma", "3",
                           "--theta", "0")
        assert code == 2

    @pytest.mark.parametrize("model,flag", [("normal", "--theta"),
                                            ("lognormal", "--theta"),
                                            ("frechet", "--beta")])
    def test_missing_grid_flag_exit_2(self, capsys, model, flag):
        code, out, err = run(capsys, "are", "--model", model, "--sigma", "2",
                             "--scheme", "0.05,0.05,0,0.10")
        assert code == 2
        assert err.startswith("validation error:") and flag in err
        assert out == ""

    def test_descending_range_exit_2(self, capsys):
        code, out, err = run(capsys, "are", "--model", "frechet",
                             "--sigma", "2", "--beta", "1:0.5:0.1",
                             "--scheme", "0.05,0.05,0,0.10")
        assert code == 2
        assert err.startswith("validation error:")
        assert out == ""

    @pytest.mark.parametrize("model,flag,grid", [("normal", "--beta", "1,2"),
                                                 ("frechet", "--theta", "0")])
    def test_wrong_grid_flag_exit_2(self, capsys, model, flag, grid):
        right = "--beta" if model == "frechet" else "--theta"
        code, out, err = run(capsys, "are", "--model", model, "--sigma", "2",
                             right, "1", flag, grid,
                             "--scheme", "0.05,0.05,0,0.10")
        assert code == 2
        assert err.startswith("validation error:") and flag in err
        assert out == ""


class TestSimulate:
    def test_zero_replicates_exit_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", "normal",
                           "--sigma", "5", "--theta", "0.1", "--n", "100",
                           "--replicates", "0",
                           "--scheme", "0,0.05,0,0.05")
        assert code == 2

    @pytest.mark.parametrize("model,flags", [
        ("normal", ["--theta", "0.1", "--beta", "3"]),
        ("frechet", []),
        ("normal", []),
        ("lognormal", ["--theta", "1", "--beta", "3"]),
    ])
    def test_model_parameter_flag_checked_exit_2(self, capsys, model, flags):
        code, out, err = run(capsys, "simulate", "--model", model,
                             "--sigma", "5", "--n", "20",
                             "--replicates", "100", "--repetitions", "1",
                             "--scheme", "0.1,0.1,0.1,0.1", *flags)
        assert code == 2
        assert err.startswith("validation error:")
        assert out == ""

    def test_zero_true_parameter_exit_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--model", "normal",
                             "--sigma", "5", "--theta", "0", "--n", "20",
                             "--replicates", "100", "--repetitions", "1",
                             "--scheme", "0.1,0.1,0.1,0.1")
        assert code == 2
        assert err.startswith("validation error:")
        assert len(err.splitlines()) == 1
        assert out == ""

    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", "--model", "normal", "--sigma", "5",
                "--theta", "0.1", "--n", "100", "--replicates", "200",
                "--repetitions", "2", "--seed", "17",
                "--scheme", "0.05,0.05,0,0.10")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0].split(",")
        assert header[:3] == ["estimator", "n", "mean_theta_ratio"]


SCHEME = ("--scheme", "0.1,0.1,0.1,0.1")
SIMULATE = ("simulate", "--replicates", "100", "--repetitions", "1") + SCHEME
NORMAL = ("--model", "normal", "--sigma", "1", "--theta", "1")


@pytest.mark.parametrize("argv", [
    ("are", "--model", "normal", "--sigma", "1", "--theta", "nan,inf")
    + SCHEME,
    ("are", "--model", "normal", "--sigma", "inf", "--theta", "1") + SCHEME,
    ("are", "--model", "frechet", "--sigma", "2", "--beta", "inf") + SCHEME,
    ("are", "--model", "lognormal", "--sigma", "1", "--theta=-inf")
    + SCHEME,
    SIMULATE + ("--n", "20", "--model", "frechet", "--sigma", "2",
                "--beta", "inf"),
    SIMULATE + ("--n", "20", "--model", "normal", "--sigma", "inf",
                "--theta", "1"),
    SIMULATE + ("--n", "20", "--model", "lognormal", "--sigma", "1",
                "--theta", "nan"),
])
def test_non_finite_parameter_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("validation error:")
    assert len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("fit", "--model", "normal", "--data", "hurricane",
     "--a1", "1/0", "--b1", "0", "--a2", "0", "--b2", "0"),
    ("are", "--model", "normal", "--sigma", "1",
     "--theta", "0:1e308:1e-308") + SCHEME,
    ("are", "--model", "normal", "--sigma", "1",
     "--theta=-1e308:1e308:1") + SCHEME,
    SIMULATE + ("--n", "20.7") + NORMAL,
    SIMULATE + ("--n", "inf") + NORMAL,
    # Sizes rejected before anything of that size is built.
    ("are", "--model", "normal", "--sigma", "1", "--theta", "0:1e300:1",
     "--scheme", "0,0,0,0"),
    SIMULATE + ("--n", "20:2e6:1") + NORMAL,
    SIMULATE + ("--n", "2000000") + NORMAL,
    ("simulate", "--replicates", "1000000000000", "--repetitions", "1",
     "--n", "20") + SCHEME + NORMAL,
    ("simulate", "--replicates", "100", "--repetitions", "1000000000000",
     "--n", "20") + SCHEME + NORMAL,
    ("are", "--model", "normal", "--sigma", "1", "--theta", "1",
     "--scheme", "0.1,0.1,0.1"),
    ("are", "--model", "normal", "--sigma", "1", "--theta", "0:1:0")
    + SCHEME,
])
def test_unparsable_number_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("validation error:")
    assert len(err.splitlines()) == 1
    assert out == ""


def test_overflowing_fitted_sigma_is_an_estimator_failure(capsys):
    # With beta = 1e150 most replicates fit a log sigma beyond the float
    # range: those count as failures of the estimator (the MLE row too),
    # and past the 1% limit the study exits 3 rather than aborting.
    code, out, err = run(capsys, *SIMULATE, "--n", "20", "--model",
                         "frechet", "--sigma", "1e-150", "--beta", "1e150")
    assert code == 3
    assert out == ""
    assert err.startswith("estimation failure:") and "MLE failed" in err
    assert len(err.splitlines()) == 1


def test_negative_seed_exit_2(capsys):
    code, out, err = run(capsys, *SIMULATE, "--n", "20", *NORMAL,
                         "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("validation error:") and "seed" in err
    assert len(err.splitlines()) == 1


class TestGof:
    def test_table_shape_and_modified_rows(self, capsys):
        code, out, _ = run(capsys, "gof", "--modified",
                           "--scheme", "1/30,1/30,1/30,1/30")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert len(rows) == 5  # header + 2 estimators x 2 datasets
        assert float(rows[1][2]) == pytest.approx(22.80, abs=0.01)
        # trimmed estimates identical across original/modified datasets
        t3_orig, t3_mod = rows[2], rows[4]
        assert t3_orig[2:4] == t3_mod[2:4]
        assert t3_orig[7:9] == t3_mod[7:9]


    def test_modified_maximum_overflow_exit_2(self, capsys, tmp_path):
        # Ten times 1e308 is beyond the float range.
        path = tmp_path / "data.csv"
        path.write_text("1\n1e308\n")
        err = _assert_one_validation_line(capsys, "gof", "--data", str(path),
                                          "--scale=1", "--modified")
        assert "overflows" in err


FIT_ZERO = ("--a1", "0", "--b1", "0", "--a2", "0", "--b2", "0")
HUGE_SIGMA = ("--sigma", "1e200", "--theta", "1")


def _assert_one_validation_line(capsys, *argv):
    # Rejected with one validation error line and no numpy RuntimeWarning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("validation error:")
    assert len(err.splitlines()) == 1
    assert [str(w.message) for w in caught] == []
    return err


@pytest.mark.parametrize("argv", [
    ("are", "--model", "normal", "--scheme", "0.1,0.1,0,0.2") + HUGE_SIGMA,
    SIMULATE + ("--n", "20", "--model", "normal") + HUGE_SIGMA,
    ("fit", "--model", "frechet", "--data", "hurricane", "--scale", "1e300")
    + FIT_ZERO,
    ("are", "--model", "normal", "--sigma", "1e100", "--theta", "1",
     "--scheme", "0.1,0.1,0,0.2"),
    ("are", "--model", "frechet", "--sigma", "1", "--beta", "1e100",
     "--scheme", "0.1,0.1,0,0.2"),
    ("are", "--model", "normal", "--sigma", "1", "--theta", "1e200")
    + SCHEME,
    SIMULATE + ("--n", "20", "--model", "normal", "--sigma", "1e100",
                "--theta", "1"),
    ("are", "--model", "normal", "--sigma", "1e77", "--theta", "1",
     "--scheme", "0.1,0.1,0,0.2"),
    ("are", "--model", "normal", "--sigma", "1e-200", "--theta", "1",
     "--scheme", "0.1,0.1,0,0.2"),
    ("are", "--model", "frechet", "--sigma", "1", "--beta", "1e-170",
     "--scheme", "0.1,0.1,0,0.2"),
    SIMULATE + ("--n", "20", "--model", "normal", "--sigma", "1",
                "--theta", "1e200"),
    # The ratios estimate / theta overflow for a subnormal theta.
    SIMULATE + ("--n", "20", "--model", "normal", "--sigma", "1",
                "--theta", "5e-324"),
])
def test_overflow_exit_2(capsys, argv):
    # sigma**2 of the MLE covariance; det S_MLE (sigma**4 / 2 or
    # 6 beta**4 sigma**2 / pi**2) for sigma or beta = 1e100; theta**2 in
    # Sigma_T; the fitted Frechet sigma (5.5e300) is finite, but its
    # delta-method covariance is not; nor is det S_T for sigma = 1e77.
    # det S_MLE underflows to zero for sigma = 1e-200 or beta = 1e-170,
    # and the squares of draws near theta = 1e200 overflow.
    err = _assert_one_validation_line(capsys, *argv)
    assert err.startswith("validation error: parameters out of range")


@pytest.mark.parametrize("model, huge, small", [
    ("normal", ("--sigma", "1e60", "--theta", "1"),
     ("--sigma", "1", "--theta", "1e-60")),
    ("frechet", ("--sigma", "1", "--beta", "1e60"),
     ("--sigma", "1", "--beta", "1")),
])
def test_are_on_a_large_scale(capsys, model, huge, small):
    # The ARE is scale-free, and det Sigma_T (scale**6) may overflow
    # while S_MLE and S_T, whose determinants go as scale**4, do not.
    argv = ("are", "--model", model, "--scheme", "0.1,0.1,0,0.2") + SCHEME
    code, out_huge, err = run(capsys, *argv, *huge)
    assert code == 0 and err == ""
    _, out_small, _ = run(capsys, *argv, *small)
    assert out_huge.splitlines()[1:] == out_small.splitlines()[1:]


def test_lognormal_mle_of_negative_data_exit_2(capsys, tmp_path):
    # The lognormal MLE takes logs through the positivity check.
    data = tmp_path / "data.csv"
    data.write_text("x\n1\n2\n-3\n4\n5\n")
    _assert_one_validation_line(capsys, "gof", "--data", str(data),
                                "--scale", "1")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_data_row_exit_2(capsys, tmp_path, value):
    path = tmp_path / "data.csv"
    path.write_text("x\n" + "\n".join(
        [str(v) for v in range(1, 10)] + [value]) + "\n")
    code, out, err = run(capsys, "fit", "--model", "normal",
                         "--data", str(path), "--a1", "0.1", "--b1", "0.1",
                         "--a2", "0.1", "--b2", "0.1")
    assert code == 2
    assert out == ""
    assert err.startswith("validation error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("fit", "--model", "normal", "--data", "hurricane", "--scale", "nan")
    + FIT_ZERO,
    ("fit", "--model", "normal", "--data", "hurricane", "--scale", "inf")
    + FIT_ZERO,
    ("fit", "--model", "normal", "--data", "hurricane", "--scale", "1e308")
    + FIT_ZERO,
    ("gof", "--scale", "0"),
    ("gof", "--scale", "-1"),
    ("fit", "--model", "normal", "--data", "hurricane", "--scale", "1e160",
     "--a1", "0.1", "--b1", "0.1", "--a2", "0", "--b2", "0.2"),
    # The squares of the data are subnormal (1e-160) or zero (1e-170),
    # and t2 with them.
    ("fit", "--model", "normal", "--data", "hurricane", "--scale", "1e-160",
     "--a1", "0.05", "--b1", "0.05", "--a2", "0", "--b2", "0.1"),
    ("fit", "--model", "normal", "--data", "hurricane", "--scale", "1e-170",
     "--a1", "0.05", "--b1", "0.05", "--a2", "0", "--b2", "0.1"),
])
def test_bad_scale_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("validation error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("command", ["are", "simulate", "gof"])
def test_failure_during_rows_writes_nothing(capsys, tmp_path, monkeypatch,
                                            command, to_file):
    # Each command fails while it computes its rows, after its header:
    # neither the header nor a file may be written.
    if command == "are":
        argv = ("are", "--model", "normal", "--sigma", "1e200",
                "--theta", "1") + SCHEME
    elif command == "simulate":
        draw = simulation._uniforms  # constant samples: no Frechet MLE
        monkeypatch.setattr(simulation, "_uniforms",
                            lambda *a: np.full_like(draw(*a), 0.5))
        argv = SIMULATE + ("--n", "20", "--model", "frechet",
                           "--sigma", "2", "--beta", "5")
    else:
        data = tmp_path / "data.csv"
        data.write_text("x\n1\n2\n-3\n4\n5\n")
        argv = ("gof", "--data", str(data), "--scale", "1")
    out_file = tmp_path / "out.csv"
    if to_file:
        argv += ("-o", str(out_file))
    code, out, err = run(capsys, *argv)
    assert code in (2, 3)
    assert out == ""
    assert not out_file.exists()
    assert "Traceback" not in err


def test_output_file_on_success(capsys, tmp_path):
    argv = ("fit", "--model", "lognormal", "--data", "hurricane") + FIT_ZERO
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "fit.json"
    code, out, err = run(capsys, *argv, "-o", str(out_file))
    assert code == 0
    assert out == "" and err == ""
    assert out_file.read_text() == expected


@pytest.mark.parametrize("factor", [1.0, 1e-100])
def test_singular_covariance_reported_as_null(capsys, tmp_path, factor):
    # Data this close together leave no room for the delta-method
    # covariance, on any scale: the fit succeeds without standard errors.
    path = tmp_path / "data.csv"
    values = (1000000, 1000000.001, 1000000.002, 1000000.0005, 1000000.0015)
    path.write_text("x\n" + "".join(f"{v * factor!r}\n" for v in values))
    code, out, err = run(capsys, "fit", "--model", "normal",
                         "--data", str(path), *FIT_ZERO)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["standard_errors"] is None
    assert doc["covariance"] is None


@pytest.mark.parametrize("k", [1e-9, 1e-40, 1e-100, 1e-140, 1e40, 1e80,
                               1e150])
@pytest.mark.parametrize("trim", [
    pytest.param(("--a1", "0.1", "--b1", "0.1", "--a2", "0.1", "--b2", "0.1"),
                 id="equal-0.1"),
    pytest.param(("--a1", "0.05", "--b1", "0.05", "--a2", "0", "--b2", "0.1"),
                 id="nested-0.05"),
    pytest.param(FIT_ZERO, id="zero")])
def test_fit_covariance_is_scale_equivariant(capsys, trim, k):
    # Data rescaled by k rescale a location-scale fit's covariance by k^2
    # and its standard errors by k, wherever they stay in the float range.
    def fit_doc(scale):
        code, out, err = run(capsys, "fit", "--model", "normal", "--data",
                             "hurricane", "--scale", str(scale), *trim)
        assert (code, err) == (0, "")
        return json.loads(out)

    ref, got = fit_doc(1.0), fit_doc(k)
    assert correlation_gap(np.array(got["covariance"]) / k / k,
                           np.array(ref["covariance"])) <= 1e-12
    for name, se in ref["standard_errors"].items():
        assert got["standard_errors"][name] / k == pytest.approx(
            se, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150])
@pytest.mark.parametrize("trim", [
    pytest.param(FIT_ZERO, id="zero"),
    pytest.param(("--a1", "1/30", "--b1", "1/30", "--a2", "1/30",
                  "--b2", "1/30"), id="equal-1/30"),
    pytest.param(("--a1", "0.1", "--b1", "0.1", "--a2", "0.1", "--b2", "0.1"),
                 id="equal-0.1")])
@pytest.mark.parametrize("model", ["lognormal", "frechet"])
def test_log_family_fit_is_scale_equivariant(capsys, model, trim, k):
    # A log family fits log data, which a rescaling by k shifts by log k.
    # Equal schemes are shift-equivariant: the lognormal theta moves by
    # log k and its sigma and both SEs stay; the Frechet beta and SE beta
    # stay and its sigma and SE sigma scale by k.  (Nested schemes depend
    # on the data's origin by design.)
    def fit_doc(scale):
        code, out, err = run(capsys, "fit", "--model", model, "--data",
                             "hurricane", "--scale", str(scale), *trim)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        return doc["estimates"], doc["standard_errors"]

    (ref, ref_se), (got, got_se) = fit_doc(1.0), fit_doc(k)
    if model == "lognormal":
        pairs = [(got["theta"] - math.log(k), ref["theta"]),
                 (got["sigma"], ref["sigma"]),
                 (got_se["theta"], ref_se["theta"]),
                 (got_se["sigma"], ref_se["sigma"])]
    else:
        pairs = [(got["beta"], ref["beta"]),
                 (got["sigma"] / k, ref["sigma"]),
                 (got_se["beta"], ref_se["beta"]),
                 (got_se["sigma"] / k, ref_se["sigma"])]
    for value, expected in pairs:
        assert value == pytest.approx(expected, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("model", ["lognormal", "frechet"])
def test_fit_takes_one_delta_method_pass(capsys, monkeypatch, model):
    # The covariance and the standard errors come from one Jacobian at the
    # fitted moments, not one pass each.
    calls = []
    jacobian = asymptotics.jacobian_at_moments

    def counted(*args):
        calls.append(args)
        return jacobian(*args)

    monkeypatch.setattr(asymptotics, "jacobian_at_moments", counted)
    _clean_run(capsys, "fit", "--model", model, "--data", "hurricane",
               *FIT_ZERO)
    assert len(calls) == 1


@pytest.mark.parametrize("k", [1e-160, 1e-200, 1e-300])
def test_frechet_sigma_se_does_not_underflow(capsys, k):
    # sigma's SE is sigma * sqrt(var / n): no sigma^2 is formed, so it
    # scales with the data down to sigma near 5e-300.
    def se_sigma(scale):
        code, out, err = run(capsys, "fit", "--model", "frechet", "--data",
                             "hurricane", "--scale", str(scale), *FIT_ZERO)
        assert (code, err) == (0, "")
        return json.loads(out)["standard_errors"]["sigma"]

    assert se_sigma(k) / k == pytest.approx(se_sigma(1.0), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("trim", [
    pytest.param(FIT_ZERO, id="zero"),
    pytest.param(("--a1", "0.05", "--b1", "0.05", "--a2", "0", "--b2", "0.1"),
                 id="nested-0.05"),
    pytest.param(("--a1", "0.2", "--b1", "0.2", "--a2", "0", "--b2", "0.4"),
                 id="nested-0.2")])
@pytest.mark.parametrize("model", ["normal", "lognormal", "frechet"])
def test_constant_data_exit_3(capsys, tmp_path, model, trim):
    # Constant data have no scale, on every scheme: a nested scheme's
    # positive plus root is not an estimate of one.
    path = tmp_path / "data.csv"
    path.write_text("x\n" + "4\n" * 10)
    code, out, err = run(capsys, "fit", "--model", model,
                         "--data", str(path), *trim)
    assert (code, out) == (3, "")
    assert err.startswith("estimation failure:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("scheme", [(), ("--scheme", "0.1,0.1,0.1,0.1")],
                         ids=["mle", "scheme"])
def test_gof_constant_data_exit_3(capsys, tmp_path, scheme):
    # Constant data have no MLE for either case-study family.
    path = tmp_path / "data.csv"
    path.write_text("4\n" * 5)
    code, out, err = run(capsys, "gof", "--data", str(path), "--scale", "1",
                         *scheme)
    assert (code, out) == (3, "")
    assert err.startswith("estimation failure:")
    assert len(err.splitlines()) == 1


ARE_ONE_POINT = ("are", "--model", "normal", "--theta", "1",
                 "--scheme", "0.05,0.05,0,0.10")


# argparse's own rejections keep the contract: exit 2 with one prefixed
# line on stderr and nothing on stdout.
@pytest.mark.parametrize("argv", [
    pytest.param((*ARE_ONE_POINT, "--sigma", "abc"), id="sigma-abc"),
    pytest.param(ARE_ONE_POINT, id="missing-sigma"),
    pytest.param(("are", "--model", "gamma", "--sigma", "1", "--theta", "1",
                  "--scheme", "0,0,0,0"), id="model-gamma"),
    pytest.param(("estimate", "--model", "normal"), id="unknown-subcommand"),
    pytest.param((), id="empty-argv"),
])
def test_argparse_rejection_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("validation error:")
    assert len(err.splitlines()) == 1


def test_duplicate_flag_takes_last_value(capsys):
    out = _clean_run(capsys, *ARE_ONE_POINT, "--sigma", "1", "--sigma", "3")
    assert out == _clean_run(capsys, *ARE_ONE_POINT, "--sigma", "3")
    assert out != _clean_run(capsys, *ARE_ONE_POINT, "--sigma", "1")


def test_help_exits_0_on_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["are", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: trimmoments are") and out.err == ""


def _clean_run(capsys, *argv):
    """stdout of a run that must exit 0 with nothing on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    return out


def _csv_column(out, col):
    return [float(row[col]) for row in list(csv.reader(io.StringIO(out)))[1:]]


ARE_AT_ONE = ("are", "--model", "normal", "--sigma", "1", "--theta", "0",
              "--scheme")
FIT_AT_ONE = ("fit", "--model", "frechet", "--data", "hurricane",
              "--a1", "0.1", "--a2", "0.2", "--b2", "0", "--b1")
SIMULATE_ONE = (*SIMULATE, "--n", "20", "--model", "frechet", "--beta", "0.5",
                "--sigma")
SIMULATE_NORMAL = (*SIMULATE, "--n", "20", "--model", "normal", "--sigma", "1",
                   "--theta")
ARE_NESTED_TINY_SIGMA = ("are", "--model", "normal", "--sigma", "1e-60",
                         "--scheme", "0.05,0.05,0,0.1")


# Contract table: inputs the CLI accepts that once wrote RuntimeWarnings
# or failed, each run beside a neighbouring input with the same answer.
@pytest.mark.parametrize("argv, reference, values", [
    # A window ending within 1e-9 of 1: no quadrature node may round to 1.
    pytest.param((*ARE_AT_ONE, "0.05,0,0.05,1e-9"),
                 (*ARE_AT_ONE, "0.05,0,0.05,0"),
                 lambda out: _csv_column(out, 1), id="are-window-at-one"),
    pytest.param((*FIT_AT_ONE, "1e-9"), (*FIT_AT_ONE, "0"),
                 lambda out: list(json.loads(out)["estimates"].values()),
                 id="fit-window-at-one"),
    # The Frechet study is scale-equivariant in sigma; its squared errors
    # in data units overflow at 1e154.
    pytest.param((*SIMULATE_ONE, "1e154"), (*SIMULATE_ONE, "2"),
                 lambda out: _csv_column(out, 4), id="simulate-large-sigma"),
    # A normal study's errors do not depend on theta; relative to a tiny
    # theta their squares overflow.
    pytest.param((*SIMULATE_NORMAL, "1e-160"), (*SIMULATE_NORMAL, "1"),
                 lambda out: _csv_column(out, 4), id="simulate-tiny-theta"),
    # For a tiny theta the ratios est / theta scale as 1 / theta, so
    # their standard deviation across repetitions over their mean does
    # not depend on theta; at 1e-160 the squared deviations overflow
    # unless scaled.
    pytest.param((*SIMULATE_NORMAL, "1e-160", "--repetitions", "3"),
                 (*SIMULATE_NORMAL, "1e-150", "--repetitions", "3"),
                 lambda out: [sd / mean for sd, mean in zip(
                     _csv_column(out, 5), _csv_column(out, 2))],
                 id="simulate-tiny-theta-sd"),
    # A nested scheme's ARE tends to a limit as theta / sigma grows; at
    # 1e160 its square overflows.
    pytest.param((*ARE_NESTED_TINY_SIGMA, "--theta=1e100"),
                 (*ARE_NESTED_TINY_SIGMA, "--theta=1e90"),
                 lambda out: _csv_column(out, 1),
                 id="are-large-theta-over-sigma"),
])
def test_contract_matches_neighbour(capsys, argv, reference, values):
    got = values(_clean_run(capsys, *argv))
    assert got == pytest.approx(values(_clean_run(capsys, *reference)),
                                rel=1e-6)


def test_contract_gof_far_low_outlier(capsys, tmp_path):
    # The Frechet MLE of data with one point far below the rest has a
    # large beta: its fitted quantiles overflow, its log-quantiles do
    # not, and the trimmed fit's density underflows at the outlier.
    path = tmp_path / "data.csv"
    values = [1e-300, *np.exp(np.linspace(-0.5, 0.5, 29)).tolist()]
    path.write_text("".join(f"{v!r}\n" for v in values))
    out = _clean_run(capsys, "gof", "--data", str(path), "--scale", "1",
                     "--scheme", "0.1,0.1,0.1,0.1")
    fits = _csv_column(out, 4) + _csv_column(out, 9)
    assert all(map(math.isfinite, fits))
    assert _csv_column(out, 10)[1] == math.inf


# Property test of the `are` contract: argv from boundary tokens for the
# three models, run in-process.  Ordinary values are drawn about as often
# as boundary ones, so that every model reaches exit 0 too.
ORDINARY_TOKENS = ("0.5", "1", "2")
PARAMETER_TOKENS = ("0", "1", "-1", "1e-320", "5e-324", "1e-160", "1e60",
                    "1e77", "1e200", "1e308", "nan", "inf")
DESCENDING_RANGES = ("1:0.5:0.1", "1e200:-1e200:1e199", "-1:-2:0.5")
PREFIXES = ("validation error:", "estimation failure:", "I/O error:")


@st.composite
def _lattice_scheme(draw):
    """a1,b1,a2,b2 on the k/100 lattice: equal windows or either nesting."""
    k = st.integers(0, 30)
    a1, b1 = draw(k), draw(k)
    nesting = draw(st.sampled_from(("equal", "condition8", "condition12")))
    if nesting == "equal":
        a2, b2 = a1, b1
    elif nesting == "condition8":  # a2 <= a1 and b1 <= b2
        a2, b2 = draw(st.integers(0, a1)), draw(st.integers(b1, 30))
    else:  # a1 <= a2 and b2 <= b1
        a2, b2 = draw(st.integers(a1, 30)), draw(st.integers(0, b1))
    return ",".join(f"{v / 100!r}" for v in (a1, b1, a2, b2))


@st.composite
def _are_argv(draw):
    model = draw(st.sampled_from(("normal", "lognormal", "frechet")))
    own = "beta" if model == "frechet" else "theta"
    other = "theta" if model == "frechet" else "beta"
    token = st.one_of(st.sampled_from(ORDINARY_TOKENS),
                      st.sampled_from(PARAMETER_TOKENS))
    grid = draw(st.one_of(
        st.lists(token, min_size=1, max_size=3).map(",".join),
        st.sampled_from(DESCENDING_RANGES)))
    flags = draw(st.one_of(st.just((own,)),
                           st.sampled_from(((other,), (own, other)))))
    argv = ["are", f"--model={model}", f"--sigma={draw(token)}"]
    argv += [f"--{flag}={grid}" for flag in flags]
    for scheme in draw(st.lists(_lattice_scheme(), min_size=1, max_size=2)):
        argv.append(f"--scheme={scheme}")
    return argv


def _run_captured(argv):
    """(exit code, stdout, stderr, RuntimeWarning messages) of main."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [
        str(w.message) for w in caught
        if issubclass(w.category, RuntimeWarning)]


@given(argv=_are_argv())
@example(argv=["are", "--model=normal", "--sigma=1e77", "--theta=1e77",
               "--scheme=0.01,0.0,0.0,0.0"])
@settings(max_examples=100, deadline=None)
def test_are_contract_property(argv):
    first = _run_captured(argv)
    code, out, err, runtime_warnings = first
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert runtime_warnings == []
    if code == 0:
        assert err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2
        values = [float(v) for row in rows[1:] for v in row[1:]]
        assert values and all(0.0 <= v <= 1.0 for v in values)
    else:
        assert out == ""
        assert err.startswith(PREFIXES)
        assert len(err.splitlines()) == 1
    assert _run_captured(argv) == first


def test_are_after_a_numpy_scalar_scheme_warns_nothing():
    # A scheme built from numpy scalars shares its cached record with the
    # equal float scheme of a later call; numpy scalars in that record
    # made overflowing parameters raise numpy RuntimeWarnings.
    clear_caches()
    eta_constants(Family.NORMAL, validate_scheme(*np.array([0.01, 0, 0, 0.01])))
    code, out, err, runtime_warnings = _run_captured(
        ["are", "--model=normal", "--sigma=1e77", "--theta=1e77",
         "--scheme=0.01,0.0,0.0,0.01"])
    assert runtime_warnings == []
    assert (code, out) == (2, "")


def test_simulate_with_overflowing_re_counts_it_singular():
    # The MLE's squared errors overflow in `finite_re`: every repetition's
    # RE is NaN, as for a singular matrix, and no RuntimeWarning is written.
    code, out, err, runtime_warnings = _run_captured([
        "simulate", "--model=frechet", "--sigma=1e200", "--beta=1e-160",
        "--n=20", "--replicates=100", "--repetitions=1", "--seed=0",
        "--scheme=0,0,0,0"])
    assert runtime_warnings == []
    assert (code, out) == (3, "")
    assert err.startswith("estimation failure: estimator MLE failed")


# Property tests of the `fit`, `simulate` and `gof` contracts, in the
# style of the `are` one: argv from boundary tokens, data files from
# ordinary values with boundary rows mixed in, and output to stdout, to
# '-', to a file or into a missing directory.
DATA_TOKENS = PARAMETER_TOKENS + ("-inf", "1e-300", "word", "")
SCALE_TOKENS = ("1", "1e9", "1e-170", "1e-160", "1e-20", "1e150", "1e300",
                "0", "-1", "nan", "inf")
TRIM_TOKENS = ("1/30", "1/0", "0.99", "-0.1", "nan")


@st.composite
def _data_text(draw):
    """A one-column data file: optional header, ordinary positive or
    signed values and up to two boundary rows."""
    ordinary = st.one_of(st.floats(0.01, 100.0), st.floats(-10.0, 10.0))
    values = draw(st.lists(ordinary.map(repr), max_size=30))
    values += draw(st.lists(st.sampled_from(DATA_TOKENS), max_size=2))
    header = draw(st.sampled_from(("", "x\n", "value,other\n")))
    return header + "".join(f"{v}\n" for v in values)


@st.composite
def _data_flags(draw, directory):
    """--data (the bundled set, a written file or a missing path) and
    perhaps --scale."""
    source = draw(st.sampled_from(("hurricane", "file", "missing")))
    if source == "file":
        path = directory / "data.csv"
        path.write_text(draw(_data_text()))
        flags = ["--data", str(path)]
    else:
        flags = ["--data", source if source == "hurricane"
                 else str(directory / "missing" / "data.csv")]
    if draw(st.booleans()):
        flags.append(f"--scale={draw(st.sampled_from(SCALE_TOKENS))}")
    return flags


@st.composite
def _output_flags(draw, directory):
    """No -o, '-', a file, or a file in a missing directory."""
    target = draw(st.sampled_from((None, "-", "file", "missing")))
    if target is None:
        return [], None
    if target == "-":
        return ["-o", "-"], None
    path = directory / ("out" if target == "file" else "missing/out")
    return ["-o", str(path)], path


def _fit_argv(draw, directory):
    model = draw(st.sampled_from(("normal", "lognormal", "frechet")))
    trims = draw(_lattice_scheme()).split(",")
    if draw(st.integers(0, 4)) == 0:
        trims[draw(st.integers(0, 3))] = draw(st.sampled_from(TRIM_TOKENS))
    argv = ["fit", f"--model={model}", *draw(_data_flags(directory))]
    argv += [f"--{flag}={v}" for flag, v in zip(("a1", "b1", "a2", "b2"),
                                                 trims)]
    return argv


def _simulate_argv(draw, directory):
    model = draw(st.sampled_from(("normal", "lognormal", "frechet")))
    own = "beta" if model == "frechet" else "theta"
    token = st.one_of(st.sampled_from(ORDINARY_TOKENS),
                      st.sampled_from(PARAMETER_TOKENS))
    argv = ["simulate", f"--model={model}", f"--sigma={draw(token)}",
            f"--{own}={draw(token)}", "--n=20", "--replicates=100",
            "--repetitions=1", f"--seed={draw(st.sampled_from((0, 1, -1)))}"]
    for scheme in draw(st.lists(_lattice_scheme(), min_size=1, max_size=2)):
        argv.append(f"--scheme={scheme}")
    return argv


def _gof_argv(draw, directory):
    argv = ["gof", *draw(_data_flags(directory))]
    for scheme in draw(st.lists(_lattice_scheme(), max_size=2)):
        argv.append(f"--scheme={scheme}")
    if draw(st.booleans()):
        argv.append("--modified")
    return argv


def _run_with_output(argv, path):
    """_run_captured plus the bytes of the -o file, None if there is none."""
    result = _run_captured(argv)
    return (*result, path.read_bytes() if path is not None
            and path.exists() else None)


@pytest.mark.parametrize("command", [_fit_argv, _simulate_argv, _gof_argv],
                         ids=["fit", "simulate", "gof"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_file_commands_contract_property(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        argv = command(data.draw, directory)
        out_flags, path = data.draw(_output_flags(directory))
        argv += out_flags
        first = _run_with_output(argv, path)
        code, out, err, runtime_warnings, written = first
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert runtime_warnings == []
        if code == 0:
            assert err == ""
            assert (out == "") == (path is not None) == (written is not None)
        else:
            assert out == ""
            assert written is None
            assert err.startswith(PREFIXES)
            assert len(err.splitlines()) == 1
        assert _run_with_output(argv, path) == first
