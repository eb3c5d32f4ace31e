"""Run configuration parsing and the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msid
from msid.cli import (cmd_generate, cmd_gradcheck, cmd_identify, cmd_sweep,
                      main, read_history_csv)
from msid.config import RunConfig
from msid.errors import ConfigError
from msid.model import load_dataset


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


class TestRunConfig:
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
