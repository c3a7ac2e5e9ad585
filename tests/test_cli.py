"""CLI contracts: manifest-driven byte-exact reruns, deterministic printed
summaries, lossless CSV round trips, strict sorted JSON artifacts, and the
exit-code mapping."""

import csv
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlmc_evidence import cli as cli_module
from mlmc_evidence.cli import (
    _max_zscore,
    build_parser,
    default_true_theta,
    finite_difference_check,
    main,
    manifest_flags,
    parse_int64,
    parse_level_range,
    parse_vector,
)
from mlmc_evidence.diagnostics import LevelStats, variance_profile
from mlmc_evidence.errors import ContractViolation
from mlmc_evidence.estimator import EstimatorConfig
from mlmc_evidence.gradients import GradientEstimate
from mlmc_evidence.logspace import StreamingMoments
from mlmc_evidence.models import Dataset, GaussianConjugateModel, save_dataset
from mlmc_evidence.rng import STREAM_BATCH, STREAM_DATA, STREAM_DIAG, substream
from mlmc_evidence.trainer import TrainConfig, train


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


def read_level_stats(path) -> list[LevelStats]:
    """The rows of a profile CSV as `LevelStats`."""
    with open(path, newline="") as fh:
        return [
            LevelStats(**{k: (int if k in ("level", "replications") else float)(v)
                          for k, v in row.items()})
            for row in csv.DictReader(fh)
        ]


class TestParsers:
    def test_vector(self):
        assert parse_vector("1,0,-0.693") == [1.0, 0.0, -0.693]
        assert parse_vector("1e-3,2.5E2") == [0.001, 250.0]
        with pytest.raises(ContractViolation):
            parse_vector("1,abc")
        # an empty vector once ran at the default parameters
        for text in ["", " ", ",", "1,,0", "1,0,"]:
            with pytest.raises(ContractViolation, match="empty entry"):
                parse_vector(text)
        # nan once reached the manifest as a bare NaN, which is not JSON
        for text in ["nan,0,0", "1,inf", "-inf", "1,-NaN"]:
            with pytest.raises(ContractViolation, match="non-finite entry"):
                parse_vector(text)

    def test_int64(self):
        # int()'s grammar, without its 4300-digit limit
        for text, value in [("7", 7), (" +0_1_2 ", 12), ("0" * 5000 + "7", 7),
                            ("-0_0", 0), (str(-(2**63)), -(2**63)), (str(2**63 - 1), 2**63 - 1)]:
            assert parse_int64(text) == value
        for text in [str(2**63), str(-(2**63) - 1), "1" + "0" * 19, "9" * 5000, "-" + "9" * 5000]:
            with pytest.raises(ContractViolation, match="does not fit in int64"):
                parse_int64(text)
        for text in ["", "x", "1.5", "_1", "1_", "0__1", "+-5", "1e3", "9" * 5000 + "x"]:
            with pytest.raises(ContractViolation, match="is not an integer"):
                parse_int64(text)

    def test_level_range(self):
        assert parse_level_range("1..7") == [1, 2, 3, 4, 5, 6, 7]
        assert parse_level_range("3") == [3]
        assert parse_level_range("62..62") == [62]
        assert parse_level_range("007..0010") == [7, 8, 9, 10]
        assert parse_level_range("0" * 5000 + "1..2") == [1, 2]
        for text in ["2..1", "-1..2", "0..63", "63", "0.." + "9" * 5000, "..3", "1..2..3",
                     " 1..2"]:
            with pytest.raises(ContractViolation, match="bad level range"):
                parse_level_range(text)

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("mlmc-evidence ")]
        assert len(lines) == 7
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])  # a usage error exits


class TestGenData:
    def test_round_trip_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = ["gen-data", "--model", "gaussian", "--n", "200",
                "--theta", "1,0,-0.693", "--seed", "3"]
        code1, line1, _ = run_cli(capsys, *argv, "--out", str(out1))
        code2, line2, _ = run_cli(capsys, *argv, "--out", str(out2))
        assert code1 == code2 == 0
        assert (out1 / "dataset.txt").read_bytes() == (out2 / "dataset.txt").read_bytes()
        assert (out1 / "dataset.txt.json").read_bytes() == (out2 / "dataset.txt.json").read_bytes()
        header = json.loads((out1 / "dataset.txt.json").read_text())
        assert header == {"dim": 1, "n_total": 200, "seed": 3,
                          "true_theta": [1.0, 0.0, -0.693]}

    def test_reload_matches(self, tmp_path, capsys):
        from mlmc_evidence.models import load_dataset, save_dataset

        out = tmp_path / "d"
        code, _, _ = run_cli(capsys, "gen-data", "--model", "bernoulli", "--n", "64",
                             "--seed", "9", "--out", str(out))
        assert code == 0
        data, header = load_dataset(out / "dataset.txt")
        assert data.n_total == 64
        resaved = tmp_path / "resaved.txt"
        save_dataset(resaved, data, header["seed"], header["true_theta"])
        assert resaved.read_bytes() == (out / "dataset.txt").read_bytes()


class TestEstimate:
    def test_deterministic_output_line(self, tmp_path, capsys):
        argv = ["estimate", "--model", "gaussian", "--n0", "8", "--batch", "64",
                "--seed", "7"]
        code1, line1, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "r1"))
        code2, line2, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "r2"))
        assert code1 == code2 == 0
        assert line1 == line2
        assert line1.startswith("log-evidence estimate ")
        j1 = (tmp_path / "r1" / "estimate.json").read_bytes()
        j2 = (tmp_path / "r2" / "estimate.json").read_bytes()
        assert j1 == j2

    def test_overflowing_std_error_is_contract_error(self, tmp_path, capsys):
        # the value is finite (about -2.9e201) but the squared deviations
        # overflow, and Infinity in estimate.json would not be strict JSON
        out = tmp_path / "e"
        code, stdout, err = run_cli(
            capsys, "estimate", "--phi", "0,1e100,0", "--batch", "8", "--out", str(out)
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: estimate overflows") and err.count("\n") == 1
        assert not (out / "estimate.json").exists()
        assert not (out / "manifest.json").exists()

    def test_replayed_manifest_replays_identically(self, tmp_path, capsys):
        # a replay's own manifest is the original's, so replays chain
        outs = [tmp_path / "r0"]
        code, _, _ = run_cli(capsys, "estimate", "--seed", "11", "--batch", "32",
                             "--out", str(outs[0]))
        assert code == 0
        for k in (1, 2):
            outs.append(tmp_path / f"r{k}")
            code, _, _ = run_cli(capsys, "rerun", "--manifest",
                                 str(outs[-2] / "manifest.json"), "--out", str(outs[-1]))
            assert code == 0
        for name in ("estimate.json", "manifest.json"):
            ref = (outs[0] / name).read_bytes()
            assert all((out / name).read_bytes() == ref for out in outs[1:])

    def test_rerun_from_manifest(self, tmp_path, capsys):
        first = tmp_path / "first"
        code, line1, _ = run_cli(capsys, "estimate", "--seed", "5", "--batch", "16",
                                 "--phi", "0,0,0.3466", "--out", str(first))
        assert code == 0
        replay = tmp_path / "replay"
        code, line2, _ = run_cli(capsys, "rerun", "--manifest",
                                 str(first / "manifest.json"), "--out", str(replay))
        assert code == 0
        assert line2 == line1
        for name in ("estimate.json", "manifest.json"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_loads_dataset_from_file(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        code, _, _ = run_cli(capsys, "gen-data", "--n", "40", "--seed", "2",
                             "--out", str(data_dir))
        assert code == 0
        code, line, _ = run_cli(capsys, "estimate", "--data",
                                str(data_dir / "dataset.txt"), "--seed", "4",
                                "--out", str(tmp_path / "est"))
        assert code == 0
        payload = json.loads((tmp_path / "est" / "estimate.json").read_text())
        assert math.isfinite(payload["value"])


class TestVarianceProfileCommand:
    @pytest.mark.parametrize("naive", [False, True], ids=["antithetic", "naive"])
    def test_rounding_noise_fails_alike_on_every_seed(self, tmp_path, capsys, naive):
        # the Bernoulli defaults put q at the exact posterior, so every
        # level value is rounding noise: every seed reads var_z 0 at every
        # level and ends in the same error line, where a fit to the noise
        # exited 0 on some seeds and 1 on others
        errors = set()
        for seed in range(40):
            code, _, err = run_cli(
                capsys, "variance-profile", "--model", "bernoulli", "--levels", "0..5",
                "--reps", "100", "--seed", str(seed), "--out", str(tmp_path / str(seed)),
                *(["--naive"] if naive else []),
            )
            assert code == 1, seed
            errors.add(err)
        assert errors == {"error: decay fit needs >= 3 positive values, have 0 for field 'var_z'\n"}

    def test_writes_profile_and_fit(self, tmp_path, capsys):
        out = tmp_path / "vp"
        code, line, _ = run_cli(
            capsys, "variance-profile", "--levels", "1..4", "--reps", "150",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert "variance decay slope" in line
        rows = (out / "profile.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
        fit = json.loads((out / "fit.json").read_text())
        assert fit["slope_var_z"] < 0

    def test_csv_parses_back_losslessly(self, tmp_path, capsys):
        out = tmp_path / "vp"
        run_cli(capsys, "variance-profile", "--levels", "1..3", "--reps", "120",
                "--seed", "3", "--out", str(out))
        # the command's synthetic data and estimator at their defaults
        model = GaussianConjugateModel(1)
        data = model.generate_data(np.array(default_true_theta("gaussian", 1)), 50,
                                   substream(3, STREAM_DATA))
        stats = variance_profile(model, data, np.zeros(3), np.zeros(3), [1, 2, 3], 120,
                                 EstimatorConfig(batch_size=8), substream(3, STREAM_DIAG))
        assert read_level_stats(out / "profile.csv") == stats

    def test_csv_round_trip(self, tmp_path, capsys):
        model = GaussianConjugateModel(1)
        data = model.generate_data(np.zeros(3), 20, substream(401, 0))
        save_dataset(tmp_path / "data.txt", data, 401, np.zeros(3))
        phi_wide = np.array([0.0, 0.0, 0.5 * math.log(2.0)])
        out = tmp_path / "vp"
        code, _, err = run_cli(
            capsys, "variance-profile", "--data", str(tmp_path / "data.txt"),
            "--phi", ",".join(map(str, phi_wide.tolist())), "--n0", "8", "--levels", "1..3",
            "--reps", "150", "--seed", "414", "--out", str(out),
        )
        assert code == 0, err
        stats = variance_profile(model, data, np.zeros(3), phi_wide, range(1, 4), 150,
                                 EstimatorConfig(n0=8, batch_size=8), substream(414, STREAM_DIAG))
        assert read_level_stats(out / "profile.csv") == stats
        text = (out / "profile.csv").read_text()
        assert text.splitlines()[0] == (
            "level,replications,mean_z,var_z,var_grad_theta_max,mean_cost"
        )
        assert "\r" not in text

    def test_failed_fit_prints_only_the_error_line(self, tmp_path):
        # a fresh interpreter, whose logging has no handler of its own, so a
        # warning about the dropped level would reach stderr before the error
        proc = subprocess.run(
            [sys.executable, "-m", "mlmc_evidence.cli", "variance-profile", "--model",
             "bernoulli", "--n", "3", "--levels", "0..2", "--reps", "100",
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: decay fit"), proc.stderr


class TestMomentsCommand:
    def test_moments_artifact(self, tmp_path, capsys):
        out = tmp_path / "m"
        code, line, _ = run_cli(
            capsys, "moments", "--s", "4.5", "--t", "3", "--draws", "20000",
            "--phi", "0,0,0.3466", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "moments.json").read_text())
        assert payload["s_exponent"] == 4.5
        assert math.isfinite(payload["log_s_moment_estimate"])
        assert not payload["tail_warning"]
        assert "log s-moment" in line

    def test_overflowing_s_moment_is_strict_json(self, tmp_path, capsys):
        # the s-moment itself overflows float64; its log does not
        out = tmp_path / "m"
        code, _, _ = run_cli(
            capsys, "moments", "--s", "2000", "--draws", "10000", "--out", str(out),
        )
        assert code == 0
        payload = json.loads((out / "moments.json").read_text(), parse_constant=_reject)
        assert math.isfinite(payload["log_s_moment_estimate"])

    @pytest.mark.parametrize("flag", ["--s", "--t"])
    def test_overflowing_estimate_is_contract_error(self, tmp_path, capsys, flag):
        # s * log(f/p) or |log(f/p)|^t overflows float64, and NaN or
        # Infinity in moments.json would not be strict JSON
        out = tmp_path / "m"
        code, _, err = run_cli(
            capsys, "moments", "--draws", "10000", flag, "1e308", "--phi", "0,0,-2",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: moment estimates overflow") and err.count("\n") == 1
        assert not (out / "moments.json").exists()

    @pytest.mark.parametrize("index", ["10", "-1"])
    def test_x_index_outside_rows_rejected(self, tmp_path, capsys, index):
        # -1 would otherwise wrap to the last row
        code, _, err = run_cli(
            capsys, "moments", "--n", "10", "--x-index", index, "--draws", "100",
            "--out", str(tmp_path / "m"),
        )
        assert code == 1
        assert err.startswith("error: x-index")

    @pytest.mark.parametrize("flag, value", [("--s", "nan"), ("--t", "nan"), ("--s", "inf")])
    def test_nonfinite_exponent_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "m"
        code, _, err = run_cli(
            capsys, "moments", flag, value, "--draws", "10000", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: moment exponents")
        assert not (out / "moments.json").exists()


class TestGradCheckCommand:
    @pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
    def test_passes_on_both_models(self, tmp_path, capsys, model):
        out = tmp_path / f"gc-{model}"
        code, line, _ = run_cli(
            capsys, "grad-check", "--model", model, "--points", "25",
            "--reps", "400", "--batch", "4", "--n", "12", "--seed", "6",
            "--out", str(out),
        )
        assert code == 0, line
        assert line.startswith("PASS")
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["passed"] is True
        assert payload["fd_max_rel_err"] <= 1e-6

    @pytest.mark.parametrize("step", ["0", "nan", "inf"])
    def test_fd_step_must_be_finite_and_positive(self, tmp_path, capsys, step):
        # a zero step divided by zero; a NaN step compared as a 0 error
        out = tmp_path / "gc"
        code, _, err = run_cli(
            capsys, "grad-check", "--fd-step", step, "--points", "2", "--reps", "100",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: fd-step")
        assert not (out / "gradcheck.json").exists()

    def test_an_empty_dataset_is_a_contract_error(self, tmp_path, capsys):
        # the first finite-difference point's index draw once raised numpy's
        # bare "high <= 0"
        path = tmp_path / "empty.txt"
        save_dataset(path, Dataset(np.zeros((0, 1))), seed=0, true_theta=np.zeros(3))
        out = tmp_path / "gc"
        code, stdout, err = run_cli(
            capsys, "grad-check", "--data", str(path), "--points", "2", "--reps", "2",
            "--out", str(out),
        )
        assert (code, stdout, err) == (1, "", "error: dataset is empty\n")
        assert not out.exists() or not any(out.iterdir())

    def test_failed_fd_check_reports_failure(self, tmp_path, capsys):
        # a tolerance no central difference meets: the check fails cleanly
        out = tmp_path / "gc"
        code, _, err = run_cli(
            capsys, "grad-check", "--fd-tol", "1e-300", "--points", "2", "--reps", "100",
            "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: gradient check failed: FAIL")
        assert json.loads((out / "gradcheck.json").read_text())["passed"] is False

    def test_single_class_data_passes(self, tmp_path, capsys):
        # at c = -40 every observation is 0, so class 1's phi columns are 0
        # in every replication and in the oracle: zero spread, no z-score
        out = tmp_path / "gc"
        code, line, _ = run_cli(
            capsys, "grad-check", "--model", "bernoulli", "--true-theta", "0,-40",
            "--n", "20", "--points", "3", "--reps", "50", "--out", str(out),
        )
        assert code == 0, line
        payload = json.loads((out / "gradcheck.json").read_text(), parse_constant=_reject)
        assert payload["passed"] is True

    def test_zero_spread_scores_zero_only_at_the_oracle(self):
        moments = StreamingMoments()
        for row in ([1.0, 0.0, 2.0], [3.0, 0.0, 2.0]):
            moments.push(np.array(row))
        assert _max_zscore(moments, np.array([2.0, 0.0, 2.0])) == 0.0
        assert _max_zscore(moments, np.array([2.0, 0.0, 1.0])) == math.inf

    def test_non_finite_point_fails_the_check(self):
        # the NaN error of an overflowing log weight once left the worst
        # error at 0.0, a perfect pass
        data = Dataset([[1e200]])
        with np.errstate(all="ignore"), pytest.raises(ContractViolation,
                                                      match="finite-difference point 0: "):
            finite_difference_check(GaussianConjugateModel(1), data, 3, 1e-5, substream(1, 0))

    def test_non_finite_point_fails_before_any_artifact(self, tmp_path, capsys):
        # these rows once wrote "max_zscore_grad_phi": Infinity into gradcheck.json
        (tmp_path / "d.txt").write_text("1e154\n0.5\n")
        (tmp_path / "d.txt.json").write_text('{"dim": 1, "n_total": 2}')
        out = tmp_path / "gc"
        code, stdout, err = run_cli(capsys, "grad-check", "--data", str(tmp_path / "d.txt"),
                                    "--points", "20", "--reps", "20", "--batch", "4",
                                    "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: finite-difference point ") and err.count("\n") == 1
        assert not list(out.iterdir())

    def test_infinite_zscore_is_written_as_null(self, tmp_path, capsys, monkeypatch):
        # a component that never varies off the oracle scores inf, once
        # written as Infinity, which strict JSON readers reject
        monkeypatch.setattr(cli_module, "estimator_mean_check", lambda *args: (math.inf, 0.5))
        out = tmp_path / "gc"
        code, stdout, err = run_cli(capsys, "grad-check", "--points", "2", "--reps", "100",
                                    "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: gradient check failed: FAIL")
        for path in out.iterdir():  # every artifact is strict JSON
            json.loads(path.read_text(), parse_constant=_reject)
        payload = json.loads((out / "gradcheck.json").read_text(), parse_constant=_reject)
        assert payload["max_zscore_grad_theta"] is None
        assert payload["max_zscore_grad_phi"] == 0.5
        assert payload["passed"] is False

    @pytest.mark.parametrize("patch, message", [
        ({"finite_difference_check": lambda *args: math.nan},
         "error: cannot write gradcheck.json: non-finite ['fd_max_rel_err']\n"),
        ({"estimate_gradients": lambda *args: GradientEstimate(np.full(3, math.nan),
                                                                np.zeros(3), 0)},
         "error: the theta-gradient estimates or their spread are not finite\n"),
    ], ids=["nan-in-artifact", "nan-estimates"])
    def test_other_non_finite_value_is_an_error(self, tmp_path, capsys, monkeypatch, patch,
                                                message):
        # neither may reach gradcheck.json, as NaN or as the null of a zero spread
        for name, stub in patch.items():
            monkeypatch.setattr(cli_module, name, stub)
        out = tmp_path / "gc"
        code, stdout, err = run_cli(capsys, "grad-check", "--points", "2", "--reps", "100",
                                    "--out", str(out))
        assert (code, stdout, err) == (1, "", message)
        assert not (out / "gradcheck.json").exists()

    def test_zero_points_rejected(self, tmp_path, capsys):
        # no point checked must not read as a passed check
        out = tmp_path / "gc"
        code, _, err = run_cli(
            capsys, "grad-check", "--points", "0", "--reps", "100", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: points")
        assert not (out / "gradcheck.json").exists()

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_fewer_than_two_reps_rejected_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                          reps):
        # the replication spread needs two replications; no point is checked first
        def no_draw(*args):
            raise AssertionError("finite-difference check ran")

        monkeypatch.setattr(cli_module, "finite_difference_check", no_draw)
        out = tmp_path / "gc"
        code, stdout, err = run_cli(
            capsys, "grad-check", "--reps", reps, "--points", "2", "--out", str(out),
        )
        assert (code, stdout, err) == (1, "", f"error: reps must be >= 2, got {reps}\n")
        assert not (out / "manifest.json").exists()


class TestTrainCommand:
    def test_short_training_run(self, tmp_path, capsys):
        out = tmp_path / "t"
        code, line, _ = run_cli(
            capsys, "train", "--steps", "40", "--eval-every", "20",
            "--eval-reps", "2", "--batch", "4", "--n", "30", "--seed", "8",
            "--out", str(out),
        )
        assert code == 0
        assert line.startswith("trained 40 steps")
        rows = (out / "records.csv").read_text().splitlines()
        assert rows[0].startswith("step,")
        assert len(rows) == 1 + 3  # steps 0, 20, 40
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 8
        assert summary["total_cost"] > 0

    def test_csv_and_summary(self, tmp_path, capsys):
        model = GaussianConjugateModel(1)
        true_theta = np.array([1.0, 0.0, math.log(0.5)])
        data = model.generate_data(true_theta, 60, substream(501, 0))
        save_dataset(tmp_path / "data.txt", data, 501, true_theta)
        out = tmp_path / "t"
        code, _, err = run_cli(
            capsys, "train", "--data", str(tmp_path / "data.txt"), "--steps", "30",
            "--eval-every", "15", "--eval-reps", "2", "--n0", "8", "--batch", "4",
            "--seed", "510", "--out", str(out),
        )
        assert code == 0, err
        cfg = TrainConfig(steps=30, lr_theta=1e-3, lr_phi=1e-3, momentum=0.9, eval_every=15,
                          eval_replications=2, estimator=EstimatorConfig(n0=8, batch_size=4))
        records = train(model, data, np.zeros(3), np.zeros(3), cfg,
                        substream(510, STREAM_BATCH))

        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 1 + len(records)
        assert lines[0].startswith("step,evidence_estimate,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 510
        np.testing.assert_allclose(summary["final_theta"], records[-1].theta)
        assert summary["total_cost"] == records[-1].cumulative_cost

    @pytest.mark.parametrize("flag", ["--lr-theta", "--lr-phi"])
    def test_nan_learning_rate_rejected(self, tmp_path, capsys, flag):
        # not a divergence (exit 2) after one step: the input is invalid
        code, _, err = run_cli(
            capsys, "train", flag, "nan", "--steps", "5", "--batch", "2", "--n", "10",
            "--out", str(tmp_path / "t"),
        )
        assert code == 1
        assert err.startswith("error: learning rates")

    def test_rerun_reproduces_training(self, tmp_path, capsys):
        first = tmp_path / "t1"
        code, line1, _ = run_cli(
            capsys, "train", "--steps", "30", "--eval-every", "15",
            "--eval-reps", "2", "--batch", "4", "--n", "20", "--seed", "9",
            "--out", str(first),
        )
        assert code == 0
        replay = tmp_path / "t2"
        code, line2, _ = run_cli(
            capsys, "rerun", "--manifest", str(first / "manifest.json"),
            "--out", str(replay),
        )
        assert code == 0
        assert line1 == line2
        for name in ("records.csv", "summary.json", "manifest.json"):
            assert (replay / name).read_bytes() == (first / name).read_bytes()


class TestLawNote:
    ARGV = {
        "estimate": ["--n", "20", "--batch", "8"],
        "train": ["--n", "20", "--batch", "4", "--steps", "4", "--eval-every", "2",
                  "--eval-reps", "2"],
    }
    ARTIFACTS = {"estimate": ["estimate.json"], "train": ["records.csv", "summary.json"]}

    @pytest.mark.parametrize("command", ["estimate", "train"])
    @pytest.mark.parametrize("ratio_log2", ["-2", "-3"])
    def test_a_ratio_at_or_below_a_quarter_is_named(self, tmp_path, capsys, command, ratio_log2):
        # at r <= 1/4 the estimator's variance is not finite where level
        # variances fall like 4^-l; the summary says so and no artifact changes
        out = tmp_path / "x"
        code, line, err = run_cli(capsys, command, *self.ARGV[command], "--ratio-log2", ratio_log2,
                                  "--out", str(out))
        assert (code, err) == (0, "")
        note = (f" [level ratio 2^{ratio_log2} <= 1/4: the variance is not finite"
                " where level variances fall like 4^-l]\n")
        assert line.endswith(note) and line.count("\n") == 1
        for name in self.ARTIFACTS[command]:
            assert "1/4" not in (out / name).read_text()

    @pytest.mark.parametrize("command", ["estimate", "train"])
    @pytest.mark.parametrize("ratio_log2", [None, "-1.9"], ids=["default", "-1.9"])
    def test_a_finite_variance_law_has_no_note(self, tmp_path, capsys, command, ratio_log2):
        extra = [] if ratio_log2 is None else ["--ratio-log2", ratio_log2]
        code, line, _ = run_cli(capsys, command, *self.ARGV[command], *extra,
                                "--out", str(tmp_path / "x"))
        assert code == 0
        assert line.endswith(" draws)\n") and "1/4" not in line


class TestExitCodes:
    @pytest.mark.parametrize("dim", ["-7", "0", "2"])
    @pytest.mark.parametrize(
        "command", ["gen-data", "estimate", "variance-profile", "grad-check", "moments", "train"]
    )
    def test_bernoulli_refuses_any_dim_but_one(self, tmp_path, capsys, command, dim):
        # the bernoulli model once ignored --dim and wrote it into the manifest
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, command, "--model", "bernoulli", "--dim", dim, "--n", "10", "--out", str(out)
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: the bernoulli model has dim 1, got --dim {dim}\n"
        assert not out.exists() or not any(out.iterdir())

    def test_a_bernoulli_manifest_of_another_dim_is_refused(self, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(capsys, "estimate", "--model", "bernoulli", "--n", "10",
                             "--batch", "4", "--out", str(first))
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["dim"] == 1
        manifest["dim"] = -7
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        code, stdout, err = run_cli(capsys, "rerun", "--manifest", str(edited),
                                    "--out", str(replay))
        assert (code, stdout) == (1, "")
        assert err == "error: the bernoulli model has dim 1, got --dim -7\n"
        assert not replay.exists() or not any(replay.iterdir())

    def test_unknown_flag_is_usage_error(self, tmp_path):
        # argparse errors are remapped from its default 2 to the usage code 1
        proc = subprocess.run(
            [sys.executable, "-m", "mlmc_evidence.cli", "estimate", "--bogus", "1",
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1

    def test_bad_vector_is_contract_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "estimate", "--theta", "nope",
                               "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error" in err

    def test_failed_run_leaves_no_manifest(self, tmp_path, capsys):
        # the manifest was once written before the run, so a run that
        # failed before writing any artifact left one behind
        out = tmp_path / "d"
        code, stdout, err = run_cli(capsys, "estimate", "--n0", "0", "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == ["error: n0 must be >= 1, got 0"]
        assert not (out / "manifest.json").exists()

    def test_ratio_past_the_largest_float_is_contract_error(self, tmp_path, capsys):
        # 2^1100 overflows a float: the OverflowError once exited 2 with
        # "(34, 'Numerical result out of range')"
        out = tmp_path / "r"
        code, stdout, err = run_cli(capsys, "estimate", "--ratio-log2", "1100", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            "error: level ratio must lie in (0, 1/2) for finite expected cost, got inf"
        ]
        assert not (out / "manifest.json").exists()

    def test_failure_after_an_artifact_can_be_replayed(self, tmp_path, capsys):
        # a failed grad check writes its gradcheck.json, then fails: the
        # manifest written with that artifact replays the same failure
        first, again = tmp_path / "first", tmp_path / "again"
        argv = ["grad-check", "--fd-tol", "1e-300", "--points", "2", "--reps", "100"]
        code, stdout, err = run_cli(capsys, *argv, "--out", str(first))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: gradient check failed: FAIL")
        manifest = first / "manifest.json"
        assert json.loads(manifest.read_text())["fd_tol"] == 1e-300
        assert run_cli(capsys, "rerun", "--manifest", str(manifest), "--out", str(again)) == (
            code, stdout, err
        )
        for name in ("manifest.json", "gradcheck.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_missing_dataset_path(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "estimate", "--data",
                               str(tmp_path / "absent.txt"), "--out", str(tmp_path / "x"))
        assert code == 1

    def test_resource_guard_exit_two(self, tmp_path, capsys):
        # a level cap of 1 is virtually certain to trip within 64 draws
        code, _, err = run_cli(
            capsys, "estimate", "--level-cap", "1", "--batch", "64", "--seed", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "level cap" in err

    def test_level_cap_beyond_int64_draws_is_contract_error(self, tmp_path, capsys):
        # 8 * 2^70 draws at the deepest level cannot be counted in int64
        code, _, err = run_cli(
            capsys, "variance-profile", "--level-cap", "70", "--levels", "62..62",
            "--reps", "100", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert err.startswith("error: ") and "int64" in err

    @pytest.mark.parametrize("argv", [
        ["--level-cap", "59", "--levels", "59..59"],
        ["--dim", "16", "--level-cap", "56", "--levels", "53..53"],
    ], ids=["offsets-wrap", "bytes-overflow"])
    def test_draws_beyond_addressable_bytes_exit_two(self, tmp_path, capsys, argv):
        # a hundred level-59 members hold more than 2^63 draws; a level-53
        # member at dim 16 holds 2^56 draws, whose rows need 2^63 bytes
        code, _, err = run_cli(
            capsys, "variance-profile", *argv, "--reps", "100", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err.startswith("error: 100 members up to level")

    def test_oversized_profile_exits_two_before_any_artifact(self, tmp_path, capsys):
        # the index draw once ended in numpy's "array is too big" traceback
        code, stdout, err = run_cli(
            capsys, "variance-profile", "--reps", str(2**62), "--levels", "1..3",
            "--out", str(tmp_path / "x"),
        )
        assert (code, stdout) == (2, "")
        assert err == (
            "error: 4611686018427387904 replications may need more than 2^63 - 1 bytes"
            " at 8 bytes per replication\n"
        )
        assert not (tmp_path / "x" / "profile.csv").exists()

    @pytest.mark.parametrize("count", [2**62, 2**63 - 1], ids=["2^62", "2^63-1"])
    @pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("command, flag, counted, item", [
        *[(command, "--n", "observations", "observation") for command in (
            "gen-data", "estimate", "variance-profile", "moments", "grad-check", "train")],
        *[(command, "--batch", "members", "member")
          for command in ("estimate", "grad-check", "train")],
        ("moments", "--draws", "draws", "draw"),
    ])
    def test_a_count_past_addressable_bytes_exits_two_before_any_artifact(
        self, tmp_path, capsys, command, flag, counted, item, model, count
    ):
        # each once ended in numpy's "array is too big" traceback
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, command, "--model", model, flag, str(count), "--out", str(out)
        )
        assert (code, stdout) == (2, "")
        assert err == (
            f"error: {count} {counted} may need more than 2^63 - 1 bytes at 8 bytes per {item}\n"
        )
        assert not out.exists() or not any(out.iterdir())

    def test_allocation_failure_exit_two(self, tmp_path):
        # a level-45 member at n0 = 8 needs 2 PiB, beyond a 47-bit user
        # address space, so the allocation fails at once and takes nothing;
        # a fresh interpreter keeps the attempt out of the test process
        proc = subprocess.run(
            [sys.executable, "-m", "mlmc_evidence.cli", "variance-profile", "--level-cap", "50",
             "--levels", "45..45", "--reps", "100", "--out", str(tmp_path / "x")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), proc.stderr

    def test_level_beyond_any_level_cap_is_usage_error(self, tmp_path):
        # the range was once built before it was checked: a MemoryError
        # traceback out of argparse
        proc = subprocess.run(
            [sys.executable, "-m", "mlmc_evidence.cli", "variance-profile",
             "--levels", "0..1000000000000", "--out", str(tmp_path / "x")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "--levels" in proc.stderr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "train", "--steps", "400", "--lr-theta", "50", "--lr-phi", "50",
            "--batch", "4", "--n", "30", "--eval-reps", "1", "--seed", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--n", "5", "--theta", "1,0,800"],
            ["estimate", "--phi", "0,0,800"],
            ["estimate", "--true-theta", "1,0,800"],
            ["moments", "--phi", "0,0,800", "--draws", "10000"],
            ["train", "--theta", "0,800,0", "--steps", "1"],
        ],
        ids=["gen-data-theta", "estimate-phi", "estimate-true-theta", "moments-phi",
             "train-theta"],
    )
    def test_overflow_prints_only_the_error_line(self, tmp_path, argv):
        # a fresh interpreter, so numpy's warnings reach stderr unfiltered;
        # moments and train would otherwise write infinite or NaN results
        proc = subprocess.run(
            [sys.executable, "-m", "mlmc_evidence.cli", *argv, "--out", str(tmp_path / "x")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    @pytest.mark.parametrize(
        "argv", [["gen-data", "--n", "5"], ["estimate"], ["rerun", "--manifest", "m.json"]],
        ids=["gen-data", "estimate", "rerun"],
    )
    def test_workers_flag_is_gone(self, tmp_path, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--workers", "2", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--workers" in err

    @pytest.mark.parametrize("text, message", [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"command": "estimate"}', "manifest has no 'model'"),
    ])
    def test_bad_manifest_is_contract_error(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        code, _, err = run_cli(capsys, "rerun", "--manifest", str(manifest),
                               "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("argv, key, value", [
        (["moments", "--draws", "10000"], "x_index", "2"),
        (["estimate", "--batch", "4"], "seed", "7"),
        (["estimate", "--batch", "4"], "seed", 7.0),
        (["estimate", "--batch", "4"], "n0", True),
        (["estimate", "--batch", "4"], "ratio_log2", "-1.5"),
        (["estimate", "--batch", "4"], "phi", [0.0, "0", 0.3]),
        (["estimate", "--batch", "4"], "theta", []),
        (["estimate", "--batch", "4"], "model", "poisson"),
        (["variance-profile", "--levels", "1..3", "--reps", "100"], "naive", "yes"),
    (["variance-profile", "--levels", "1..3", "--reps", "100"], "levels", [3, 1, 2]),
    (["variance-profile", "--levels", "1..3", "--reps", "100"], "levels", [1, 1, 2]),
    (["variance-profile", "--levels", "1..3", "--reps", "100"], "levels", [0, 10**12]),
    # integers no float can hold, and a count beyond int64: tracebacks once
    (["estimate", "--batch", "4"], "ratio_log2", 10**400),
    (["grad-check", "--points", "2", "--reps", "100", "--batch", "4", "--n", "12"],
     "fd_step", 10**400),
    (["moments", "--draws", "10000"], "s", 10**400),
    (["estimate", "--batch", "4"], "batch", 10**20),
    ], ids=["moments-x-index-string", "estimate-seed-string", "int-given-float",
            "int-given-bool", "float-given-string", "vector-with-string", "empty-vector",
            "not-a-choice",
            "switch-given-string", "levels-out-of-order", "levels-repeated",
            "levels-beyond-62", "ratio-beyond-float", "fd-step-beyond-float",
            "s-beyond-float", "batch-beyond-int64"])
    def test_manifest_value_of_wrong_type_rejected(self, tmp_path, capsys, argv, key, value):
        first = tmp_path / "first"
        code, _, _ = run_cli(capsys, *argv, "--out", str(first))
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest[key] = value
        (first / "manifest.json").write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        code, out, err = run_cli(capsys, "rerun", "--manifest", str(first / "manifest.json"),
                                 "--out", str(replay))
        assert code == 1
        assert err.startswith("error: ") and f"{key}=" in err
        assert out == ""
        assert not replay.exists()

    def test_float_flag_accepts_integer_manifest_value(self, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(capsys, "estimate", "--batch", "4", "--out", str(first))
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["ratio_log2"] = -2
        (first / "manifest.json").write_text(json.dumps(manifest))
        code, _, _ = run_cli(capsys, "rerun", "--manifest", str(first / "manifest.json"),
                             "--out", str(tmp_path / "replay"))
        assert code == 0

    @pytest.mark.parametrize("argv, key, value, text", [
        (["estimate", "--batch", "4"], "ratio_log2", -2, ["--ratio-log2", "-2"]),
        (["variance-profile", "--reps", "100"], "levels", [1, 2.0, 3], ["--levels", "1..3"]),
    ], ids=["integer-for-real", "float-inside-levels"])
    def test_manifest_value_replays_as_its_flag_parses_it(self, tmp_path, capsys, argv, key,
                                                          value, text):
        # the run gets what the flag's type makes of the value's text, as
        # on the command line, down to the manifest it writes
        cli_run, first = tmp_path / "cli", tmp_path / "first"
        assert run_cli(capsys, *argv, *text, "--out", str(cli_run))[0] == 0
        assert run_cli(capsys, *argv, "--out", str(first))[0] == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest[key] = value
        (first / "manifest.json").write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        code, _, err = run_cli(capsys, "rerun", "--manifest", str(first / "manifest.json"),
                               "--out", str(replay))
        assert code == 0, err
        for path in cli_run.iterdir():
            assert (replay / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fd_tolerance_rejected_before_any_artifact(self, tmp_path, capsys,
                                                                   value):
        # gradcheck.json and the manifest once held it as NaN or Infinity,
        # which is not JSON
        out = tmp_path / "x"
        code, stdout, err = run_cli(capsys, "grad-check", "--fd-tol", value, "--points", "2",
                                    "--reps", "100", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: fd-tol must be finite, got {value}\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "--batch", str(10**20)], "--batch"),
        (["estimate", "--n", str(10**20)], "--n"),
        (["gen-data", "--n", str(10**20)], "--n"),
        (["variance-profile", "--levels", "1..3", "--reps", str(10**20)], "--reps"),
        (["moments", "--draws", str(10**20)], "--draws"),
    ], ids=["estimate-batch", "estimate-n", "gen-data-n", "variance-profile-reps",
            "moments-draws"])
    def test_count_beyond_int64_is_usage_error(self, tmp_path, capsys, argv, flag):
        # numpy once refused the size in a ValueError traceback
        out = tmp_path / "x"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert f"error: argument {flag}: '{10**20}' does not fit in int64" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, reason", [
        (["estimate", "--batch", str(10**20)], f"--batch: '{10**20}' does not fit in int64"),
        (["variance-profile", "--levels", "0..99"], "--levels: bad level range '0..99'"),
        (["estimate", "--theta", "1,nan,0"],
         "--theta: cannot parse vector '1,nan,0': non-finite entry"),
        (["estimate", "--batch", "9" * 5000], f"--batch: '{'9' * 5000}' does not fit in int64"),
        (["variance-profile", "--levels", "0.." + "9" * 5000],
         f"--levels: bad level range '0..{'9' * 5000}'"),
    ], ids=["int64", "level-range", "vector", "int64-5000-digits", "level-range-5000-digits"])
    def test_usage_error_names_its_reason(self, tmp_path, capsys, argv, reason):
        # argparse once named the parsing function instead of the reason; past
        # Python's 4300-digit limit, int() once raised with no reason or a wrong one
        out = tmp_path / "x"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.splitlines()[-1].endswith(f": error: argument {reason}")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, flag", [
        ("batch", 10**20, "--batch"),
        ("levels", [0, 99], "--levels"),
        ("theta", [1.0, math.nan, 0.0], "--theta"),
    ], ids=["int64", "level-range", "vector"])
    def test_manifest_value_keeps_its_own_line(self, tmp_path, capsys, key, value, flag):
        # a type's reason is a usage line's; a manifest names its key
        first = tmp_path / "first"
        argv = ["variance-profile", "--levels", "1..3", "--reps", "100", "--batch", "4"]
        assert run_cli(capsys, *argv, "--out", str(first))[0] == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest[key] = value
        (first / "manifest.json").write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        code, stdout, err = run_cli(capsys, "rerun", "--manifest", str(first / "manifest.json"),
                                    "--out", str(replay))
        assert (code, stdout) == (1, "")
        assert err == f"error: manifest value {key}={value!r} is not a {flag} value\n"
        assert not replay.exists()

    @pytest.mark.parametrize("dim, message", [
        (2**61, "error: MemoryError"),
        (2**62, "error: cannot fit 'int' into an index-sized integer"),
    ], ids=["memory-error", "overflow-error"])
    def test_size_beyond_any_allocation_exit_two(self, tmp_path, dim, message):
        # each size's byte count exceeds 2^63, which Python refuses before
        # asking any allocator; the first once printed a bare "error: ",
        # the second an OverflowError traceback
        proc = subprocess.run(
            [sys.executable, "-m", "mlmc_evidence.cli", "estimate", "--dim", str(dim),
             "--out", str(tmp_path / "x")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [message]

    @pytest.mark.parametrize("theta, phi", [
        ("0,0", "0,800,0,0"),
        ("1,0", "0,-800,0,0"),
    ], ids=["oracle-overflows", "oracle-nan"])
    def test_non_finite_gradient_oracle_rejected_before_any_artifact(self, tmp_path, capsys,
                                                                      theta, phi):
        # the quadrature oracle's exp of q's log scale once overflowed in a
        # traceback, and a NaN oracle wrote a NaN z-score to gradcheck.json
        out = tmp_path / "x"
        code, stdout, err = run_cli(
            capsys, "grad-check", "--model", "bernoulli", "--theta", theta, "--phi", phi,
            "--points", "1", "--reps", "2", "--batch", "2", "--n", "4", "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert err == "error: the gradient oracles are not finite at this theta and phi\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["estimate", "--theta", "", "--phi", ","],
        ["gen-data", "--n", "5", "--theta", ""],
        ["estimate", "--theta", "nan,0,0"],
    ], ids=["estimate", "gen-data", "non-finite"])
    def test_empty_vector_flag_rejected(self, tmp_path, capsys, argv):
        # an empty vector once ran silently at the default parameters
        out = tmp_path / "x"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 1
        assert "error: argument --theta" in err
        assert stdout == ""
        assert not out.exists()

    def test_wrong_dim_vector_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "estimate", "--theta", "1,2",
                               "--out", str(tmp_path / "x"))
        assert code == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(batchsize=m.pop("batch")), "manifest has no 'batch'"),
        (lambda m: m.update(workers=2), "manifest has unknown key 'workers'"),
    ], ids=["renamed-key", "extra-key"])
    def test_manifest_must_hold_exactly_its_flags(self, tmp_path, capsys, edit, message):
        # a missing key once replayed at the runner's own default
        first = tmp_path / "first"
        code, _, _ = run_cli(capsys, "estimate", "--batch", "64", "--out", str(first))
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        edit(manifest)
        (first / "manifest.json").write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        code, out, err = run_cli(capsys, "rerun", "--manifest", str(first / "manifest.json"),
                                 "--out", str(replay))
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""
        assert not replay.exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--n", "-3"],
        ["gen-data", "--n", "-1"],
        ["gen-data", "--n", "0"],
    ], ids=["estimate-negative", "gen-data-negative", "gen-data-zero"])
    def test_dataset_size_below_one_rejected(self, tmp_path, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error: dataset size must be >= 1")

    @pytest.mark.parametrize("argv", [
        ["estimate", "--seed", "-1", "--n", "5"],
        ["estimate", "--seed", str(2**64), "--n", "5"],
        ["gen-data", "--seed", "-1", "--n", "5"],
    ], ids=["estimate-negative", "estimate-2^64", "gen-data-negative"])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, argv):
        # -1 was once masked to 2^64 - 1 and printed that seed's estimate
        out = tmp_path / "x"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: seed must lie in 0..2^64 - 1, got {argv[2]}\n"
        assert not (out / "manifest.json").exists()

    def test_manifest_dataset_size_below_one_rejected(self, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(capsys, "estimate", "--batch", "4", "--out", str(first))
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["n"] = -3
        (first / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = run_cli(capsys, "rerun", "--manifest", str(first / "manifest.json"),
                               "--out", str(tmp_path / "replay"))
        assert code == 1
        assert err.startswith("error: dataset size must be >= 1")

    @pytest.mark.parametrize("rows, sidecar, culprit", [
        (b"0.5\nabc\n", b'{"dim": 1, "n_total": 2}', "dataset.txt "),
        (b"0.5\n0.5 1.0\n", b'{"dim": 1, "n_total": 2}', "dataset.txt "),
        (b"0.5\n\xff\n", b'{"dim": 1, "n_total": 2}', "dataset.txt "),
        (b"0.5\n1.0\n", b"{dim: 1", "dataset.txt.json"),
        (b"0.5\n1.0\n", b'{"dim": 1}', "dataset.txt.json"),
        (b"0.5\n1.0\n", b"[1, 2]", "dataset.txt.json"),
    ], ids=["bad-token", "ragged-rows", "not-utf8", "sidecar-not-json",
            "sidecar-without-n-total", "sidecar-not-object"])
    def test_malformed_dataset_file_is_contract_error(self, tmp_path, capsys, rows,
                                                      sidecar, culprit):
        path = tmp_path / "dataset.txt"
        path.write_bytes(rows)
        (tmp_path / "dataset.txt.json").write_bytes(sidecar)
        code, _, err = run_cli(capsys, "estimate", "--data", str(path),
                               "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error: ") and culprit in err
        assert "Traceback" not in err


# one small run of each command
SMALL_RUNS = [
    ["gen-data", "--n", "5"],
    ["estimate", "--batch", "2"],
    ["variance-profile", "--levels", "1..3", "--reps", "100"],
    ["grad-check", "--points", "2", "--reps", "100", "--batch", "4", "--n", "12"],
    ["moments", "--draws", "10000"],
    ["train", "--steps", "2", "--batch", "2", "--eval-reps", "1", "--n", "10"],
]


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
def test_written_manifest_holds_exactly_the_flags(tmp_path, capsys, argv):
    # the writer and the reader of manifests share one schema
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest.pop("command") == argv[0]
    assert sorted(manifest) == sorted(manifest_flags(argv[0]))


@pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
def test_json_artifacts_are_strict_with_sorted_keys(tmp_path, capsys, argv):
    # summary.json once had its keys in insertion order
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0, err
    paths = sorted(tmp_path.glob("*.json"))
    assert "manifest.json" in [path.name for path in paths] and len(paths) == 2
    for path in paths:
        json.loads(path.read_text(), parse_constant=_reject, object_pairs_hook=_sorted_object)
