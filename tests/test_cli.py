import json
import warnings

import numpy as np
import pytest

from trimmoments import simulation
from trimmoments.cli import main


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
])
def test_unparsable_number_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("validation error:")
    assert out == ""


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
        import csv
        rows = list(csv.reader(out.strip().splitlines()))
        assert len(rows) == 5  # header + 2 estimators x 2 datasets
        assert float(rows[1][2]) == pytest.approx(22.80, abs=0.01)
        # trimmed estimates identical across original/modified datasets
        t3_orig, t3_mod = rows[2], rows[4]
        assert t3_orig[2:4] == t3_mod[2:4]
        assert t3_orig[7:9] == t3_mod[7:9]


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


@pytest.mark.parametrize("argv", [
    ("are", "--model", "normal", "--scheme", "0.1,0.1,0,0.2") + HUGE_SIGMA,
    SIMULATE + ("--n", "20", "--model", "normal") + HUGE_SIGMA,
    ("fit", "--model", "frechet", "--data", "hurricane", "--scale", "1e300")
    + FIT_ZERO,
])
def test_overflow_exit_2(capsys, argv):
    # sigma**2 of the MLE covariance; the fitted Frechet sigma (5.5e300)
    # is finite, but its delta-method covariance is not.
    _assert_one_validation_line(capsys, *argv)


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


def test_constant_data_exit_3(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x\n" + "4\n" * 10)
    code, out, err = run(capsys, "fit", "--model", "normal",
                         "--data", str(path), *FIT_ZERO)
    assert code == 3
    assert out == ""
    assert err.startswith("estimation failure:")
