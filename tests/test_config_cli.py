"""Run configuration parsing and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import msid
from msid.cli import (cmd_generate, cmd_gradcheck, cmd_identify, cmd_sweep,
                      main, read_history_csv)
from msid.config import RunConfig
from msid.errors import ConfigError
from msid.model import Dataset, load_dataset, save_dataset


def attitude_config(tmp_path, horizon=30, known_inputs=False, seed=1, epochs=250):
    return {
        "seed": seed,
        "out_dir": str(tmp_path / "out"),
        "model": {"kind": "euler_attitude", "dt": 0.1, "integrator": "forward_euler"},
        "dataset": {
            "generate": {
                "theta_true": [0.0403, 0.0404, 0.0080],
                "x0_true": [9.915e-6, -1.102e-3, 1.3179e-5],
                "horizon": horizon,
                "noise": {"torque_mean": 1e-5, "torque_std": 1e-7, "obs_std": 1e-4},
            },
            "known_inputs": known_inputs,
        },
        "loss": {"q": 1.0},
        "optimizer": {"lr_theta": 1e-3, "lr_x0": 1e-6, "max_epochs": epochs},
        "init": {"perturb_theta": 0.3, "perturb_x0": 0.3},
    }


def scalar_config(tmp_path, theta0=0.8, epochs=50):
    return {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "model": {"kind": "scalar_linear"},
        "dataset": {
            "generate": {"theta_true": [0.8], "x0_true": [1.0], "horizon": 10,
                         "noise": {}},
        },
        "optimizer": {"max_epochs": epochs, "cost_tol": 1e-12},
        "init": {"theta": [theta0], "x0": [1.0]},
    }


def full_config(tmp_path):
    """A small attitude config that sets every field but the ones exclusive
    of those set (``dataset.path``, ``init.perturb_*``)."""
    return {
        "seed": 4,
        "out_dir": str(tmp_path / "out"),
        "model": {"kind": "euler_attitude", "dt": 0.1, "integrator": "forward_euler"},
        "dataset": {
            "generate": {
                "theta_true": [0.0403, 0.0404, 0.0080],
                "x0_true": [9.915e-6, -1.102e-3, 1.3179e-5],
                "horizon": 10,
                "noise": {"torque_mean": 1e-5, "torque_std": 1e-7, "obs_std": 1e-4,
                          "seed": 7},
            },
            "known_inputs": False,
            "nominal_input": [1e-5, 1e-5, 1e-5],
        },
        "loss": {"q": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]], "horizon": 10},
        "penalties": [
            {"type": "upper_barrier", "alpha": 2000.0, "bounds": [0.01, 0.01, 0.01],
             "lambda": 1e-9},
            {"type": "lower_barrier", "alpha": 2000.0, "bounds": [-0.01, -0.01, -0.01],
             "lambda": 1e-9},
            {"type": "parameter_box", "alpha": 10.0, "lower": [0.001, 0.001, 0.001],
             "upper": [1.0, 1.0, 1.0], "lambda": 1e-9},
            {"type": "energy_conservation", "inertia": [0.0403, 0.0404, 0.0080],
             "reference": "first_observation", "lambda": 1e-3},
            {"type": "relu_upper_bound", "bounds": [0.01, 0.01, 0.01], "lambda": 1e-9},
        ],
        "optimizer": {"lr_theta": 1e-3, "lr_x0": 1e-6, "beta1": 0.9, "beta2": 0.999,
                      "eps": 1e-8, "max_epochs": 2, "cost_tol": 0.0, "grad_tol": 0.0,
                      "box": {"lower": [0.001, 0.001, 0.001], "upper": [1.0, 1.0, 1.0]},
                      "gradient_method": "adjoint", "fd_step": 1e-6},
        "init": {"theta": [0.045, 0.035, 0.009], "x0": [1.2e-5, -1.0e-3, 1.0e-5], "seed": 9},
    }


def leaf_paths(node, path=()):
    """The key path of every value in ``node`` that is not an object,
    list elements included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    else:
        yield path
        if isinstance(node, list):
            for index, value in enumerate(node):
                yield from leaf_paths(value, path + (index,))


class TestRunConfig:
    def test_round_trip_of_every_field(self, tmp_path):
        config = RunConfig.from_dict(full_config(tmp_path))
        assert config.optimizer.box is not None and len(config.penalties) == 5
        assert RunConfig.from_dict(config.to_dict()) == config
        path = tmp_path / "config.json"
        config.to_json(path)
        assert RunConfig.from_json(path) == config

    def test_round_trip_identity(self, tmp_path):
        config = RunConfig.from_dict(attitude_config(tmp_path))
        assert RunConfig.from_dict(config.to_dict()) == config
        path = tmp_path / "config.json"
        config.to_json(path)
        assert RunConfig.from_json(path) == config

    def test_zero_epochs_rejected_at_parse_time(self, tmp_path):
        raw = attitude_config(tmp_path)
        raw["optimizer"]["max_epochs"] = 0
        with pytest.raises(ConfigError, match="optimizer.max_epochs"):
            RunConfig.from_dict(raw)

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        raw = attitude_config(tmp_path)
        raw["optimizer"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="optimizer"):
            RunConfig.from_dict(raw)

    def test_dataset_source_is_exclusive(self, tmp_path):
        raw = attitude_config(tmp_path)
        raw["dataset"]["path"] = "somewhere.csv"
        with pytest.raises(ConfigError, match="dataset"):
            RunConfig.from_dict(raw)

    def test_init_modes_are_exclusive(self, tmp_path):
        raw = attitude_config(tmp_path)
        raw["init"] = {"theta": [1, 2, 3], "x0": [0, 0, 0], "perturb_theta": 0.1}
        with pytest.raises(ConfigError, match="init"):
            RunConfig.from_dict(raw)

    def test_penalty_validation(self, tmp_path):
        raw = attitude_config(tmp_path)
        raw["penalties"] = [{"type": "upper_barrier", "alpha": -1.0,
                             "bounds": [1, 1, 1]}]
        with pytest.raises(ConfigError, match=r"penalties\[0\]"):
            RunConfig.from_dict(raw)


class TestGenerate:
    def test_writes_dataset_and_sidecar(self, tmp_path):
        config = RunConfig.from_dict(attitude_config(tmp_path, horizon=50))
        paths = cmd_generate(config)
        dataset, n_x = load_dataset(paths["dataset"])
        assert n_x == 3 and len(dataset) == 50
        with open(paths["truth"]) as handle:
            truth = json.load(handle)
        assert truth["theta_true"] == [0.0403, 0.0404, 0.0080]
        assert truth["noise"]["obs_std"] == 1e-4

    def test_byte_identical_reruns(self, tmp_path):
        config = RunConfig.from_dict(attitude_config(tmp_path))
        first = cmd_generate(config, out_dir=tmp_path / "a")
        second = cmd_generate(config, out_dir=tmp_path / "b")
        for key in ("dataset", "truth"):
            with open(first[key], "rb") as fa, open(second[key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_zero_noise_equals_rollout(self, tmp_path):
        raw = scalar_config(tmp_path)
        config = RunConfig.from_dict(raw)
        paths = cmd_generate(config)
        dataset, _ = load_dataset(paths["dataset"])
        from msid import rollout, scalar_linear_model
        trajectory = rollout(scalar_linear_model(), [1.0], [0.8], dataset.inputs)
        assert np.array_equal(dataset.observations, trajectory.predictions)


class TestIdentify:
    def test_noiseless_scalar_stops_on_cost(self, tmp_path):
        summary = cmd_identify(RunConfig.from_dict(scalar_config(tmp_path)))
        assert summary["stop_reason"] == "cost_below_tol"
        assert summary["epochs"] <= 2
        assert summary["theta_error"] <= 1e-9

    def test_writes_history_and_summary(self, tmp_path):
        config = RunConfig.from_dict(attitude_config(tmp_path, epochs=100))
        summary = cmd_identify(config)
        out = tmp_path / "out"
        history = read_history_csv(out / "history.csv")
        assert len(history["epoch"]) == summary["epochs"]
        assert history["cost"][0] == summary["initial_cost"]
        with open(out / "summary.json") as handle:
            assert json.load(handle) == summary
        assert summary["final_cost"] < summary["initial_cost"]

    def test_truth_sidecar_never_drives_the_fit(self, tmp_path):
        generate_cfg = RunConfig.from_dict(attitude_config(tmp_path, horizon=30))
        paths = cmd_generate(generate_cfg, out_dir=tmp_path / "data")
        identify_raw = {
            "seed": 5,
            "model": {"kind": "euler_attitude", "dt": 0.1},
            "dataset": {"path": paths["dataset"], "known_inputs": True},
            "optimizer": {"lr_theta": 1e-3, "lr_x0": 1e-6, "max_epochs": 40},
            "init": {"theta": [0.05, 0.05, 0.01],
                     "x0": [1e-5, -1e-3, 1e-5]},
        }
        with_sidecar = cmd_identify(RunConfig.from_dict(identify_raw),
                                    out_dir=tmp_path / "r1")
        assert "theta_error" in with_sidecar
        (tmp_path / "data" / "dataset.truth.json").unlink()
        without_sidecar = cmd_identify(RunConfig.from_dict(identify_raw),
                                       out_dir=tmp_path / "r2")
        assert "theta_error" not in without_sidecar
        assert without_sidecar["theta_hat"] == with_sidecar["theta_hat"]
        assert without_sidecar["x0_hat"] == with_sidecar["x0_hat"]

    def test_perturbed_init_requires_truth(self, tmp_path):
        generate_cfg = RunConfig.from_dict(attitude_config(tmp_path))
        paths = cmd_generate(generate_cfg, out_dir=tmp_path / "data")
        raw = attitude_config(tmp_path)
        raw["dataset"] = {"path": paths["dataset"]}
        with pytest.raises(ConfigError, match="init"):
            cmd_identify(RunConfig.from_dict(raw))


class TestGradcheck:
    def test_passes_on_attitude_fixture(self, tmp_path):
        raw = attitude_config(tmp_path, horizon=25)
        raw["init"] = {"theta": [0.045, 0.035, 0.009],
                       "x0": [1.2e-5, -1.0e-3, 1.0e-5]}
        report = cmd_gradcheck(RunConfig.from_dict(raw))
        assert report["passed"]
        assert report["max_rel_adjoint_naive"] <= 1e-10
        assert report["max_rel_adjoint_fd"] <= 1e-5
        assert set(report["adjoint"]) == {"cost", "grad_theta", "grad_x0",
                                          "penalty_total"}

    def test_long_horizon_naive_timing_dominates(self, tmp_path):
        raw = attitude_config(tmp_path, horizon=400)
        raw["init"] = {"theta": [0.042, 0.039, 0.0085],
                       "x0": [9.915e-6, -1.102e-3, 1.3179e-5]}
        report = cmd_gradcheck(RunConfig.from_dict(raw))
        assert report["passed"]
        assert report["timings_s"]["naive"] > report["timings_s"]["adjoint"]

    def test_zero_residual_reports_exact_zeros(self, tmp_path):
        raw = scalar_config(tmp_path, theta0=0.8)
        report = cmd_gradcheck(RunConfig.from_dict(raw))
        assert report["adjoint"]["grad_theta"] == [0.0]
        assert report["adjoint"]["grad_x0"] == [0.0]
        assert report["naive"]["grad_theta"] == [0.0]
        # finite differencing leaves only truncation-level noise
        assert abs(report["fd"]["grad_theta"][0]) <= 1e-8
        assert report["passed"]


class TestSweep:
    def test_single_horizon_matches_identify(self, tmp_path):
        raw = attitude_config(tmp_path, horizon=30, epochs=60)
        rows = cmd_sweep(RunConfig.from_dict(raw), [30], out_dir=tmp_path / "sweep")
        summary = cmd_identify(RunConfig.from_dict(raw), out_dir=tmp_path / "ident")
        assert len(rows) == 1
        assert float(rows[0]["theta_error"]) == summary["theta_error"]
        table = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert table[0] == "T,theta_error,wall_time_s,final_cost,error"

    def test_empty_horizons_is_usage_error(self, tmp_path):
        config = RunConfig.from_dict(attitude_config(tmp_path))
        with pytest.raises(ConfigError):
            cmd_sweep(config, [])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failures_marked_in_error_column(self, tmp_path):
        # the constant mean torque spins the body up until the forward-Euler
        # rollout overflows, so a very long horizon fails while short ones run
        raw = attitude_config(tmp_path, epochs=20)
        rows = cmd_sweep(RunConfig.from_dict(raw), [30, 8000],
                         out_dir=tmp_path / "sweep")
        assert rows[0]["error"] == ""
        assert rows[1]["error"] != ""


class TestMainEntryPoint:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        with open(path, "w") as handle:
            json.dump(raw, handle)
        return path

    def test_identify_exit_zero(self, tmp_path):
        path = self.write_config(tmp_path, scalar_config(tmp_path))
        assert main(["identify", "--config", str(path)]) == 0

    def test_config_error_exit_two(self, tmp_path):
        raw = scalar_config(tmp_path)
        raw["optimizer"]["max_epochs"] = 0
        path = self.write_config(tmp_path, raw)
        assert main(["identify", "--config", str(path)]) == 2

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["identify", "--config", str(tmp_path / "nope.json")]) == 2

    # one damaged line per file: (line index, replacement, expected message);
    # line 0 is the metadata comment, line 1 the header, line k + 2 step k
    BAD_DATASET_FILES = {
        "non-finite-observation": (9, "7,0.0,nan", "observations[7, 0] is not finite"),
        "malformed-metadata": (0, "# dt=0.1 n_x=one n_u=1 n_z=1", "bad metadata line"),
        "non-numeric-cell": (5, "3,abc,1.0", "row 3, column u_1: 'abc' is not a number"),
    }

    @pytest.mark.parametrize("line,text,message", BAD_DATASET_FILES.values(),
                             ids=BAD_DATASET_FILES.keys())
    def test_bad_dataset_file_is_input_error(self, tmp_path, capsys, line, text, message):
        data = tmp_path / "dataset.csv"
        save_dataset(data, Dataset(np.zeros((10, 1)), np.ones((10, 1))), n_x=1)
        lines = data.read_text().splitlines()
        lines[line] = text
        data.write_text("\n".join(lines) + "\n")
        raw = scalar_config(tmp_path)
        raw["dataset"] = {"path": str(data)}
        assert main(["identify", "--config", str(self.write_config(tmp_path, raw))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset.path: ")
        assert message in err

    # one bad field per config: (path of the field, value, expected message)
    BAD_FIELDS = {
        "nan-q": (("loss", "q"), float("nan"), "loss.q: expected a finite number, got nan"),
        "infinite-dt": (("model", "dt"), float("inf"),
                        "model.dt: expected a finite number, got inf"),
        "nan-learning-rate": (("optimizer", "lr_theta"), float("nan"),
                              "optimizer.lr_theta: expected a finite number, got nan"),
        "null-dataset": (("dataset",), None, "dataset: expected an object"),
        "list-model": (("model",), [1], "model: expected an object"),
        "null-noise": (("dataset", "generate", "noise"), None,
                       "dataset.generate.noise: expected an object"),
        "ragged-q": (("loss", "q"), [[1, 0, 0], [0, 1], [0, 0, 1]],
                     "loss.q: rows must have equal lengths"),
        "wrong-size-q": (("loss", "q"), [[1, 0], [0, 1]],
                         "loss.q: expected a 3x3 matrix, got shape (2, 2)"),
        "non-string-out-dir": (("out_dir",), 5, "out_dir: expected a string, got 5"),
        "short-barrier-bounds": (
            ("penalties",), [{"type": "upper_barrier", "alpha": 2000.0,
                              "bounds": [0.01, 0.01], "lambda": 1e-9}],
            "penalties[0].bounds: expected 3 components, got 2"),
        "short-parameter-box": (
            ("penalties",), [{"type": "parameter_box", "lower": [0.0, 0.0],
                              "upper": [1.0, 1.0]}],
            "penalties[0].lower: expected 3 components, got 2"),
        "short-energy-inertia": (
            ("penalties",), [{"type": "energy_conservation", "inertia": [0.0403, 0.0404]}],
            "penalties[0].inertia: expected 3 components, got 2"),
        "short-optimizer-box": (("optimizer", "box"), {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                                "optimizer.box.lower: expected 3 components, got 2"),
        "short-nominal-input": (("dataset", "nominal_input"), [1e-5, 1e-5],
                                "dataset.nominal_input: expected 3 components, got 2"),
        "short-theta-true": (("dataset", "generate", "theta_true"), [0.0403, 0.0404],
                             "dataset.generate.theta_true: expected 3 components, got 2"),
        "short-x0-true": (("dataset", "generate", "x0_true"), [9.915e-6, -1.102e-3],
                          "dataset.generate.x0_true: expected 3 components, got 2"),
        "negative-seed": (("seed",), -1, "seed: must be nonnegative, got -1"),
        "negative-noise-seed": (("dataset", "generate", "noise", "seed"), -3,
                                "dataset.generate.noise.seed: must be nonnegative, got -3"),
        "negative-init-seed": (("init", "seed"), -3, "init.seed: must be nonnegative, got -3"),
        "list-dataset-path": (("dataset", "path"), ["data.csv"],
                              "dataset.path: expected a string, got ['data.csv']"),
        "nonpositive-theta-true": (
            ("dataset", "generate", "theta_true"), [0.0403, -0.0404, 0.0080],
            "dataset.generate.theta_true: inertia components must be positive, "
            "got [ 0.0403 -0.0404  0.008 ]"),
        "nonpositive-init-theta": (
            ("init",), {"theta": [0.0403, 0.0404, 0.0], "x0": [9.915e-6, -1.102e-3, 1.3179e-5]},
            "init.theta: inertia components must be positive, got [0.0403 0.0404 0.    ]"),
        "nonpositive-energy-inertia": (
            ("penalties",), [{"type": "energy_conservation", "inertia": [-0.0403, 0.0404, 0.0080]}],
            "penalties[0].inertia: inertia components must be positive, "
            "got [-0.0403  0.0404  0.008 ]"),
    }

    @pytest.mark.parametrize("keys,value,message", BAD_FIELDS.values(),
                             ids=BAD_FIELDS.keys())
    def test_bad_field_fails_at_load_time(self, tmp_path, capsys, keys, value, message):
        raw = attitude_config(tmp_path, epochs=20)
        target = raw
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        assert main(["identify", "--config", str(self.write_config(tmp_path, raw))]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_seed_override_fails_at_load_time(self, tmp_path, capsys):
        path = self.write_config(tmp_path, attitude_config(tmp_path, epochs=5))
        assert main(["identify", "--config", str(path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed: must be nonnegative, got -1\n"

    # one value of each kind a fuzzed leaf takes; WRONG_TYPE is a string, or
    # a number where the leaf is a string (never a path: out_dir stays put)
    WRONG_TYPE = "wrong type"
    BAD_VALUES = (WRONG_TYPE, True, math.nan, math.inf, -math.inf, -1, -2.5, None,
                  [1.0], [[1.0], [1.0, 2.0]])
    LEAVES = tuple(leaf_paths(full_config(Path("."))))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(keys=st.sampled_from(LEAVES), bad=st.sampled_from(BAD_VALUES))
    @example(keys=("dataset", "generate", "noise", "seed"), bad=-1)
    @pytest.mark.filterwarnings("error")
    def test_any_bad_leaf_exits_cleanly(self, tmp_path, keys, bad):
        raw = full_config(tmp_path)
        target = raw
        for key in keys[:-1]:
            target = target[key]
        if bad == self.WRONG_TYPE:
            bad = 5 if isinstance(target[keys[-1]], str) else "x"
        target[keys[-1]] = bad
        assert main(["identify", "--config", str(self.write_config(tmp_path, raw))]) in (0, 2, 3)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_candidate_prints_only_the_error(self, tmp_path, capsys):
        raw = full_config(tmp_path)
        raw["dataset"]["nominal_input"] = -2.5
        assert main(["identify", "--config", str(self.write_config(tmp_path, raw))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_seed_override_changes_data(self, tmp_path):
        path = self.write_config(tmp_path, attitude_config(tmp_path, epochs=5))
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
        first, _ = load_dataset(tmp_path / "a" / "dataset.csv")
        second, _ = load_dataset(tmp_path / "b" / "dataset.csv")
        assert not np.array_equal(first.observations, second.observations)

    def test_console_script_help(self):
        # the child imports the same msid as this process, installed or not
        source = str(Path(msid.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-m", "msid", "--help"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "generate" in result.stdout and "sweep" in result.stdout
