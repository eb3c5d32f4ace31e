"""The four benchmark workloads and the per-job configs drawn from a seed.

Every job is one identification of the attitude model.  A job's config is
an ordinary ``msid`` run config (the same JSON the ``msid`` command reads).
Its top-level ``seed`` stays 1, as in the README, so each workload fits one
fixed measured record; the job seed goes to ``init.seed`` and draws the
perturbed initial guess.  (The estimation error of one noise draw is a
random variable: on the README config a few draws exceed 5e-3, the bound
acceptance criterion 3 puts on the median over five draws.  A fixed record
makes each job's theta_err gate a property of the code, not of the draw.)
Each workload is built so that one layer does most of the work in it and
little or none in another (see README.md next to this file).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

THETA_TRUE = [0.0403, 0.0404, 0.0080]
X0_TRUE = [9.915e-6, -1.102e-3, 1.3179e-5]
NOISE = {"torque_mean": 1e-5, "torque_std": 1e-7, "obs_std": 1e-4}

# The complete config of the README's command-line section, verbatim.
README_CONFIG = {
    "seed": 1,
    "model": {"kind": "euler_attitude", "dt": 0.1, "integrator": "forward_euler"},
    "dataset": {
        "generate": {
            "theta_true": THETA_TRUE,
            "x0_true": X0_TRUE,
            "horizon": 50,
            "noise": NOISE,
        },
        "known_inputs": False,
    },
    "loss": {"q": 1.0},
    "penalties": [
        {"type": "upper_barrier", "alpha": 2000.0,
         "bounds": [0.01, 0.01, 0.01], "lambda": 1e-9},
    ],
    "optimizer": {"lr_theta": 1e-3, "lr_x0": 1e-6, "max_epochs": 3000},
    "init": {"perturb_theta": 0.3, "perturb_x0": 0.3},
}

# Weight of the energy-conservation term on masked-energy.  At this weight
# the penalty is a sizeable share of the final cost (so its gradient shapes
# the fit) while the estimate still passes the workload's theta_err gate.
ENERGY_LAMBDA = 1.0


def _attitude_config(horizon: int, integrator: str, max_epochs: int,
                     lr_theta: float, lr_x0: float, perturb: float,
                     penalties: list) -> dict:
    return {
        "seed": 1,
        "model": {"kind": "euler_attitude", "dt": 0.1, "integrator": integrator},
        "dataset": {
            "generate": {"theta_true": THETA_TRUE, "x0_true": X0_TRUE,
                         "horizon": horizon, "noise": NOISE},
            "known_inputs": True,
        },
        "loss": {"q": 1.0},
        "penalties": penalties,
        "optimizer": {"lr_theta": lr_theta, "lr_x0": lr_x0, "max_epochs": max_epochs},
        "init": {"perturb_theta": perturb, "perturb_x0": perturb},
    }


@dataclass(frozen=True)
class Workload:
    """One workload: the config template of its jobs and what to check.

    ``theta_tol`` is the accuracy every job must reach (its theta_err gate).
    ``n_nz`` is the number of structurally nonzero state-Jacobian entries
    the masked path evaluates per transition, zero when the model has no
    sparsity mask.
    """

    name: str
    why: str
    config: dict
    theta_tol: float
    via_cli: bool = False
    with_sparsity: bool = False
    n_nz: int = 0

    @property
    def has_penalties(self) -> bool:
        return bool(self.config["penalties"])

    @property
    def numeric_jacobians(self) -> bool:
        return self.config["model"]["integrator"] == "rk4"

    def job_config(self, job_seed: int) -> dict:
        config = copy.deepcopy(self.config)
        config["init"]["seed"] = job_seed
        return config


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cli-readme",
            why="msid identify as a subprocess on the README config (T=50, 3000 ADAM "
                "epochs, upper barrier): import, config, penalties, per-epoch overhead, "
                "history CSV",
            config=README_CONFIG,
            theta_tol=5e-3,
            via_cli=True),
        Workload(
            name="long-horizon",
            why="in-process identify at T=3200, known inputs, dense analytic Jacobians, "
                "no penalty: per-step rollout, Jacobian and adjoint work dominate",
            config=_attitude_config(3200, "forward_euler", max_epochs=59,
                                    lr_theta=1e-4, lr_x0=1e-7, perturb=0.02,
                                    penalties=[]),
            theta_tol=1e-3),
        Workload(
            name="masked-energy",
            why="in-process identify at T=400 with the sparsity mask and an "
                "energy_conservation term (lambda=1, first-observation reference): "
                "the only run of msid.structure",
            config=_attitude_config(
                400, "forward_euler", max_epochs=300, lr_theta=1e-3, lr_x0=1e-6,
                perturb=0.05,
                penalties=[{"type": "energy_conservation", "inertia": THETA_TRUE,
                            "reference": "first_observation",
                            "lambda": ENERGY_LAMBDA}]),
            theta_tol=5e-4,
            with_sparsity=True,
            n_nz=9),
        Workload(
            name="rk4-fallback",
            why="in-process identify at T=200 with the RK4 integrator, which has no "
                "analytic Jacobian: every Jacobian is a central-difference fallback",
            config=_attitude_config(200, "rk4", max_epochs=59, lr_theta=1e-3,
                                    lr_x0=1e-6, perturb=0.05, penalties=[]),
            theta_tol=1e-3),
    )
}
