"""Shared fixtures: random smooth test models and problem instances."""

from __future__ import annotations

import numpy as np
import pytest

from msid import (Dataset, DynamicalModel, EnergyConservation, LossSpec,
                  LowerBarrier, ModelDims, NoiseSpec, ParameterBox,
                  PenaltySpec, UpperBarrier, euler_attitude_model,
                  gamma_terms, generate_dataset, masked_jac_f_x, prediction_error,
                  rollout)

ATTITUDE_THETA = np.array([0.0403, 0.0404, 0.0080])
ATTITUDE_OMEGA0 = np.array([9.915e-6, -1.102e-3, 1.3179e-5])
ATTITUDE_DT = 0.1
ATTITUDE_NOISE = dict(torque_mean=1e-5, torque_std=1e-7, obs_std=1e-4)


def max_rel_gap(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / denom)


def report_gap(first, second):
    """Worst relative gap between two gradient reports."""
    return max(max_rel_gap(first.grad_theta, second.grad_theta),
               max_rel_gap(first.grad_x0, second.grad_x0))


def rows_times(block, mat):
    """``mat @ row`` for each row of a point (n,) or block (..., n).

    One (1, n) @ (n, m) product per row: each rounds as ``mat @ row`` does,
    where a single (N, n) @ (n, m) product rounds differently.
    """
    return (np.asarray(block)[..., None, :] @ mat.T)[..., 0, :]


def diagonal_rows(values):
    """One diagonal matrix per row of ``values`` (..., n): shape (..., n, n)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    stack = np.zeros(values.shape + (n,))
    stack[..., np.arange(n), np.arange(n)] = values
    return stack


def random_smooth_model(rng, n_x, n_u, n_z, n_theta, dt=0.1):
    """A random stable-ish model with polynomial/trigonometric dynamics and
    analytic batched Jacobians.

    f(x, u, th) = x + dt*(S1 sin(x) + S2 u + S3 th + (S4 th) o cos(x)
                          + S5 (th o th)),  g(x) = G tanh(x).
    f and g are row-wise, so the central-difference fallback of a model
    without the Jacobians can evaluate them on blocks.
    """
    s1 = 0.4 * rng.normal(size=(n_x, n_x))
    s2 = 0.5 * rng.normal(size=(n_x, n_u))
    s3 = 0.3 * rng.normal(size=(n_x, n_theta))
    s4 = 0.3 * rng.normal(size=(n_x, n_theta))
    s5 = 0.2 * rng.normal(size=(n_x, n_theta))
    gmat = rng.normal(size=(n_z, n_x))

    def f(x, u, th):
        return x + dt * (rows_times(np.sin(x), s1) + rows_times(u, s2)
                         + rows_times(th, s3) + rows_times(th, s4) * np.cos(x)
                         + rows_times(th * th, s5))

    def jac_f_x_batch(states, inputs, th):
        return np.eye(n_x) + dt * (s1 * np.cos(states)[:, None, :]
                                   - diagonal_rows((s4 @ th) * np.sin(states)))

    def jac_f_theta_batch(states, inputs, th):
        return dt * (s3 + np.cos(states)[:, :, None] * s4 + 2.0 * s5 * th[None, :])

    def g(x):
        return rows_times(np.tanh(x), gmat)

    def jac_g_x_batch(states):
        return gmat / np.cosh(states)[:, None, :] ** 2

    return DynamicalModel(dims=ModelDims(n_x, n_u, n_z, n_theta), f=f, g=g,
                          jac_f_x_batch=jac_f_x_batch,
                          jac_f_theta_batch=jac_f_theta_batch,
                          jac_g_x_batch=jac_g_x_batch)


def jacobians_at(model, x, u, theta):
    """The three Jacobians of ``model`` at one point: each the batch of one row."""
    x, u = np.asarray(x, dtype=float)[None], np.asarray(u, dtype=float)[None]
    jac_x, jac_theta = model.transition_jacobians(x, u, theta)
    return jac_x[0], jac_theta[0], model.observation_jacobians(x)[0]


def penalty_variant(kind, states, theta, rng):
    """One weighted penalty term sized to the instance at hand."""
    n_x = states.shape[1]
    if kind == "energy":
        return EnergyConservation(
            energy_fn=lambda x: 0.5 * np.sum(x * x, axis=-1),
            reference=0.5 * float(states[0] @ states[0]),
            energy_grad=lambda x: np.asarray(x, dtype=float),
            weight=0.05)
    if kind == "upper":
        bounds = np.abs(states).max(axis=0) + 0.5 + rng.uniform(0, 0.5, n_x)
        return UpperBarrier(bounds=bounds, alpha=0.7, weight=0.02)
    if kind == "lower":
        bounds = -np.abs(states).max(axis=0) - 0.5 - rng.uniform(0, 0.5, n_x)
        return LowerBarrier(bounds=bounds, alpha=0.7, weight=0.02)
    if kind == "box":
        return ParameterBox(lower=theta - 1.0, upper=theta + 1.0,
                            alpha=0.8, weight=0.02)
    raise ValueError(kind)


def random_instance(seed, penalty_kind=None, n_x=None, horizon=None):
    """A full random problem: model, dataset, loss spec, evaluation point."""
    rng = np.random.default_rng(seed)
    n_x = n_x if n_x is not None else int(rng.integers(1, 5))
    n_u = int(rng.integers(1, 3))
    n_z = int(rng.integers(1, n_x + 1))
    n_theta = int(rng.integers(1, 5))
    horizon = horizon if horizon is not None else int(rng.integers(4, 31))
    model = random_smooth_model(rng, n_x, n_u, n_z, n_theta)

    theta_true = rng.uniform(-0.8, 0.8, n_theta)
    x0_true = rng.uniform(-0.8, 0.8, n_x)
    inputs = 0.3 * rng.normal(size=(horizon, n_u))
    truth = rollout(model, x0_true, theta_true, inputs)
    observations = truth.predictions + 0.02 * rng.normal(size=(horizon, n_z))
    dataset = Dataset(inputs, observations, dt=0.1)

    theta = theta_true + 0.1 * rng.normal(size=n_theta)
    x0 = x0_true + 0.1 * rng.normal(size=n_x)

    penalty = None
    if penalty_kind is not None:
        probe = rollout(model, x0, theta, inputs)
        penalty = PenaltySpec((penalty_variant(penalty_kind, probe.states,
                                               theta, rng),))
    q_raw = rng.normal(size=(n_z, n_z))
    q = q_raw @ q_raw.T + 0.5 * np.eye(n_z)
    spec = LossSpec((q + q.T) / 2.0, horizon, penalty)
    return model, dataset, spec, theta, x0


@pytest.fixture
def attitude_model():
    return euler_attitude_model(dt=ATTITUDE_DT)


def attitude_dataset(seed, horizon=50, nominal_inputs=False):
    """The noisy attitude fixture; optionally with the realized torques
    replaced by their nominal mean (unknown-disturbance mode)."""
    model = euler_attitude_model(dt=ATTITUDE_DT)
    noise = NoiseSpec(seed=seed, **ATTITUDE_NOISE)
    dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                               horizon, noise, dt=ATTITUDE_DT)
    if nominal_inputs:
        dataset = Dataset(np.full_like(dataset.inputs, ATTITUDE_NOISE["torque_mean"]),
                          dataset.observations.copy(), ATTITUDE_DT)
    return model, dataset


def perturbed_init(seed, fraction_theta=0.3, fraction_x0=0.3):
    rng = np.random.default_rng(seed + 1)
    theta0 = ATTITUDE_THETA * (1 + fraction_theta * rng.uniform(-1, 1, 3))
    x00 = ATTITUDE_OMEGA0 * (1 + fraction_x0 * rng.uniform(-1, 1, 3))
    return theta0, x00


def reference_adjoint_loop(model, trajectory, dataset, spec, theta):
    """The step-by-step backward loop the one-product-per-step pass replaced:
    one adjoint row, the parameter term added inside the loop, and the
    sparse product as ``np.add.at`` on a masked model."""
    horizon = trajectory.horizon
    weighted = prediction_error(trajectory, dataset) @ spec.Q
    gamma, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
    states, inputs = trajectory.states[:horizon - 1], dataset.inputs[:horizon - 1]
    jac_x, jac_theta = model.transition_jacobians(states, inputs, theta)
    if model.sparsity is not None:
        rows, cols = np.nonzero(model.sparsity.state_mask)
        vals = masked_jac_f_x(jac_x, model.sparsity)[:, rows, cols]
    grad_theta = gamma.sum(axis=0)
    if spec.penalty is not None:
        grad_theta = grad_theta + spec.penalty.param_grad(theta)
    adjoint = big_gamma[horizon - 1].copy()
    for k in range(horizon - 1, 0, -1):
        grad_theta += adjoint @ jac_theta[k - 1]
        if model.sparsity is None:
            pulled = adjoint @ jac_x[k - 1]
        else:
            pulled = np.zeros(model.dims.n_x)
            np.add.at(pulled, cols, adjoint[rows] * vals[k - 1])
        adjoint = big_gamma[k - 1] + pulled
    return grad_theta, adjoint


def reference_pairwise_product(model, trajectory, dataset, spec, theta):
    """The gradient as the pairwise product of the affine step matrices,
    one plain ``@`` per product: step k is ``[[Jx[k], Jtheta[k], 0], [0, I,
    0], [big_gamma[k], 0, 1]]`` (the last with zero Jacobians); each level
    folds an odd last matrix into its neighbour, then multiplies the pairs,
    later steps on the left.  The last row of the one matrix left holds
    ``grad_x0`` and the transition part of ``grad_theta``."""
    horizon = trajectory.horizon
    weighted = prediction_error(trajectory, dataset) @ spec.Q
    gamma, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
    states, inputs = trajectory.states[:horizon - 1], dataset.inputs[:horizon - 1]
    jac_x, jac_theta = model.transition_jacobians(states, inputs, theta)
    if model.sparsity is not None:
        jac_x = masked_jac_f_x(jac_x, model.sparsity)
    n_x, n_theta = model.dims.n_x, model.dims.n_theta
    steps = []
    for k in range(horizon):
        step = np.eye(n_x + n_theta + 1)
        step[:n_x, :n_x] = jac_x[k] if k < horizon - 1 else 0.0
        step[:n_x, n_x:-1] = jac_theta[k] if k < horizon - 1 else 0.0
        step[-1, :n_x] = big_gamma[k]
        steps.append(step)
    while len(steps) > 1:
        if len(steps) % 2:
            last = steps.pop()
            steps[-1] = last @ steps[-1]
        steps = [steps[j + 1] @ steps[j] for j in range(0, len(steps), 2)]
    row = steps[0][-1]
    grad_theta = gamma.sum(axis=0)
    if spec.penalty is not None:
        grad_theta = grad_theta + spec.penalty.param_grad(theta)
    return grad_theta + row[n_x:-1], row[:n_x]
