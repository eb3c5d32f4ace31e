"""Command-line surface: data generation, identification runs, gradient
verification, and horizon sweeps, all producing plot-ready CSV/JSON.

Commands share three flags: ``--config`` (JSON, required), ``--out``
(output directory, overrides the config), and ``--seed`` (overrides the
top-level config seed).  Exit codes: 0 on success, 2 on configuration or
I/O errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfg_mod
from .config import RunConfig
from .errors import ConfigError, MsidError, NonFiniteValue
from .gradient import fd_gradient, gradient, gradient_naive
from .model import format_float, rollout, save_dataset
from .optimizer import identify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

GRADCHECK_ANALYTIC_RTOL = 1e-10
GRADCHECK_ANALYTIC_ATOL = 1e-14
GRADCHECK_FD_RTOL = 1e-5
GRADCHECK_FD_ATOL = 1e-8  # finite-difference truncation allowance at zero

TRUTH_SUFFIX = ".truth.json"


def truth_sidecar_path(dataset_path) -> Path:
    dataset_path = Path(dataset_path)
    return dataset_path.with_name(dataset_path.stem + TRUTH_SUFFIX)


def write_history_csv(path, run) -> None:
    """History CSV: ``epoch,cost,grad_norm,theta_1..theta_n,x0_1..x0_n``."""
    n_theta = run.history[0].theta.size
    n_x = run.history[0].x0.size
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "cost", "grad_norm"]
                        + [f"theta_{i + 1}" for i in range(n_theta)]
                        + [f"x0_{i + 1}" for i in range(n_x)])
        for record in run.history:
            row = [str(record.epoch), format_float(record.cost),
                   format_float(record.grad_norm)]
            row += [format_float(v) for v in record.theta]
            row += [format_float(v) for v in record.x0]
            writer.writerow(row)


def read_history_csv(path) -> dict:
    """Inverse of :func:`write_history_csv`; returns columns as arrays."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(header)}


def run_summary(run, seed, truth=None) -> dict:
    summary = {
        "theta_hat": [float(v) for v in run.theta_hat],
        "x0_hat": [float(v) for v in run.x0_hat],
        "stop_reason": run.stop_reason.value,
        "epochs": run.epochs,
        "best_cost": float(run.best_record.cost),
        "final_cost": float(run.history[-1].cost),
        "initial_cost": float(run.history[0].cost),
        "rejected_steps": run.rejected_steps,
        "seed": seed,
    }
    if truth is not None:
        error = np.asarray(run.theta_hat) - np.asarray(truth["theta_true"], dtype=float)
        summary["theta_error"] = float(np.linalg.norm(error))
    return summary


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _prepare_out_dir(config: RunConfig, out_override) -> Path:
    out_dir = out_override or config.out_dir or "."
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_generate(config: RunConfig, out_dir=None) -> dict:
    """Generate a dataset CSV plus its ground-truth sidecar JSON."""
    if config.dataset.generate is None:
        raise ConfigError("dataset.generate: required by the generate command")
    out = _prepare_out_dir(config, out_dir)
    model = cfg_mod.build_model(config.model)
    dataset, truth = cfg_mod.make_dataset(config, model)
    dataset_path = out / "dataset.csv"
    save_dataset(dataset_path, dataset, model.dims.n_x)
    noise = config.dataset.generate.noise
    sidecar = {
        "theta_true": truth["theta_true"],
        "x0_true": truth["x0_true"],
        "seed": cfg_mod.data_seed(config),
        "noise": {"torque_mean": noise.torque_mean, "torque_std": noise.torque_std,
                  "obs_std": noise.obs_std},
    }
    sidecar_path = truth_sidecar_path(dataset_path)
    _write_json(sidecar_path, sidecar)
    print(f"generate: wrote {len(dataset)} samples to {dataset_path}")
    return {"dataset": str(dataset_path), "truth": str(sidecar_path)}


def _prepare_problem(config: RunConfig):
    """Model, identification-ready dataset, loss spec, and config truth."""
    model = cfg_mod.build_model(config.model)
    raw_dataset, truth = cfg_mod.make_dataset(config, model)
    dataset = cfg_mod.identification_inputs(config, raw_dataset, model)
    horizon = cfg_mod.resolve_horizon(config, dataset)
    if horizon < len(dataset):
        dataset = dataset.prefix(horizon)
    penalty = cfg_mod.build_penalty_spec(config, model, dataset)
    spec = cfg_mod.build_loss(config, model, horizon, penalty)
    return model, dataset, spec, truth


def _post_hoc_truth(config: RunConfig, truth):
    """Truth for error reporting only: config truth, else the sidecar file."""
    if truth is not None:
        return truth
    if config.dataset.path is not None:
        sidecar = truth_sidecar_path(config.dataset.path)
        if sidecar.exists():
            with open(sidecar) as handle:
                return json.load(handle)
    return None


def cmd_identify(config: RunConfig, out_dir=None) -> dict:
    """Run one identification; write summary JSON and history CSV."""
    out = _prepare_out_dir(config, out_dir)
    model, dataset, spec, truth = _prepare_problem(config)
    theta0, x00 = cfg_mod.build_init(config, truth, model)
    options = cfg_mod.build_options(config)
    run = identify(model, dataset, spec, theta0, x00, options)
    summary = run_summary(run, config.seed, _post_hoc_truth(config, truth))
    _write_json(out / "summary.json", summary)
    write_history_csv(out / "history.csv", run)
    line = (f"identify: stop={summary['stop_reason']} epochs={summary['epochs']} "
            f"best_cost={summary['best_cost']:.6e}")
    if "theta_error" in summary:
        line += f" theta_error={summary['theta_error']:.6e}"
    print(line)
    return summary


def cmd_gradcheck(config: RunConfig, out_dir=None) -> dict:
    """Compare the backward-pass gradient against the double-sum form and
    central finite differences at the configured point."""
    out = _prepare_out_dir(config, out_dir)
    model, dataset, spec, truth = _prepare_problem(config)
    theta0, x00 = cfg_mod.build_init(config, truth, model)

    trajectory = rollout(model, x00, theta0, dataset.inputs)
    clock = [time.perf_counter()]
    adjoint = gradient(model, trajectory, dataset, spec, theta0)
    clock.append(time.perf_counter())
    naive = gradient_naive(model, trajectory, dataset, spec, theta0)
    clock.append(time.perf_counter())
    fd = fd_gradient(model, x00, theta0, dataset, spec, config.optimizer.fd_step)
    clock.append(time.perf_counter())
    time_adjoint, time_naive, time_fd = (b - a for a, b in zip(clock, clock[1:]))

    def compare(a, b, rtol, atol):
        stacked_a = np.concatenate([a.grad_theta, a.grad_x0])
        stacked_b = np.concatenate([b.grad_theta, b.grad_x0])
        diff = float(np.max(np.abs(stacked_a - stacked_b)))
        scale = float(max(np.max(np.abs(stacked_a)), np.max(np.abs(stacked_b))))
        return {"abs_diff": diff, "scale": scale, "rel": diff / scale if scale else 0.0,
                "within": diff <= rtol * scale + atol}

    adjoint_naive = compare(adjoint, naive,
                            GRADCHECK_ANALYTIC_RTOL, GRADCHECK_ANALYTIC_ATOL)
    adjoint_fd = compare(adjoint, fd, GRADCHECK_FD_RTOL, GRADCHECK_FD_ATOL)
    report = {
        "cost": adjoint.cost,
        "adjoint": adjoint.to_json_dict(),
        "naive": naive.to_json_dict(),
        "fd": fd.to_json_dict(),
        "adjoint_vs_naive": adjoint_naive,
        "adjoint_vs_fd": adjoint_fd,
        "max_rel_adjoint_naive": adjoint_naive["rel"],
        "max_rel_adjoint_fd": adjoint_fd["rel"],
        "timings_s": {"adjoint": time_adjoint, "naive": time_naive, "fd": time_fd},
        "thresholds": {"analytic_rtol": GRADCHECK_ANALYTIC_RTOL,
                       "analytic_atol": GRADCHECK_ANALYTIC_ATOL,
                       "fd_rtol": GRADCHECK_FD_RTOL, "fd_atol": GRADCHECK_FD_ATOL},
        "passed": adjoint_naive["within"] and adjoint_fd["within"],
    }
    _write_json(out / "gradcheck.json", report)
    print(f"gradcheck: adjoint-vs-naive diff={adjoint_naive['abs_diff']:.3e} "
          f"adjoint-vs-fd diff={adjoint_fd['abs_diff']:.3e} "
          f"passed={report['passed']}")
    if not report["passed"]:
        raise NonFiniteValue("gradcheck thresholds exceeded")
    return report


def cmd_sweep(config: RunConfig, horizons, out_dir=None) -> list:
    """Identify across several horizons; write a plot-ready table CSV.

    Each horizon reuses the generation spec with the same seed, so shorter
    horizons see a prefix of the same data.  Wall time is measured per run;
    per-horizon failures are recorded in the error column and do not stop
    the sweep.
    """
    if not horizons:
        raise ConfigError("sweep: at least one horizon is required")
    if config.dataset.generate is None:
        raise ConfigError("dataset.generate: required by the sweep command")
    out = _prepare_out_dir(config, out_dir)
    rows = []
    for horizon in horizons:
        generate = replace(config.dataset.generate, horizon=horizon)
        dataset_cfg = replace(config.dataset, generate=generate)
        loss_cfg = replace(config.loss, horizon=None)
        sub_config = replace(config, dataset=dataset_cfg, loss=loss_cfg)
        row = {"T": horizon, "theta_error": "", "wall_time_s": "",
               "final_cost": "", "error": ""}
        try:
            model, dataset, spec, truth = _prepare_problem(sub_config)
            theta0, x00 = cfg_mod.build_init(sub_config, truth, model)
            options = cfg_mod.build_options(sub_config)
            start = time.perf_counter()
            run = identify(model, dataset, spec, theta0, x00, options)
            elapsed = time.perf_counter() - start
            error = np.linalg.norm(np.asarray(run.theta_hat)
                                   - np.asarray(truth["theta_true"], dtype=float))
            row.update(theta_error=format_float(error),
                       wall_time_s=format_float(elapsed),
                       final_cost=format_float(run.best_record.cost))
        except MsidError as exc:
            row["error"] = str(exc)
        rows.append(row)
        print(f"sweep: T={horizon} theta_error={row['theta_error']} "
              f"wall_time_s={row['wall_time_s']} error={row['error'] or '-'}")
    with open(out / "sweep.csv", "w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["T", "theta_error", "wall_time_s", "final_cost", "error"])
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _parse_horizons(text: str) -> list:
    try:
        horizons = [int(token) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigError(f"--horizons: expected comma-separated integers, got {text!r}") from exc
    if any(h < 2 for h in horizons):
        raise ConfigError("--horizons: every horizon must be >= 2")
    return horizons


def _load_config(args) -> RunConfig:
    config = RunConfig.from_json(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed: must be nonnegative, got {args.seed}")
        config = replace(config, seed=args.seed)
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msid",
        description="Multi-step grey-box identification with exact gradients.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("generate", "generate a noisy dataset and its truth sidecar"),
                      ("identify", "fit parameters and initial state to a dataset"),
                      ("gradcheck", "verify the gradient against its oracles"),
                      ("sweep", "identify across several horizons")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to the run config JSON")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the top-level config seed")
        if name == "sweep":
            cmd.add_argument("--horizons", required=True,
                             help="comma-separated horizons, e.g. 10,25,50,100")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args)
        if args.command == "generate":
            cmd_generate(config, args.out)
        elif args.command == "identify":
            cmd_identify(config, args.out)
        elif args.command == "gradcheck":
            cmd_gradcheck(config, args.out)
        elif args.command == "sweep":
            cmd_sweep(config, _parse_horizons(args.horizons), args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MsidError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
