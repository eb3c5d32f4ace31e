"""Bundled concrete models and the noisy dataset generator.

The main model is the rigid-body attitude system

    I * dw/dt = M - w x (I * w),        z = w + noise,

with a diagonal inertia tensor whose three entries are the parameters to
identify, the body angular velocity as the state, and the external torque
as the input.  The continuous dynamics are discretized here (forward Euler
by default, classical RK4 as an alternative); the rest of the package only
ever sees the resulting discrete map.  A scalar linear model is included as
a pedagogical fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveInertia
from .model import Dataset, DynamicalModel, ModelDims, rollout
from .penalties import EnergyConservation
from .structure import SparsityMask

Array = np.ndarray

FORWARD_EULER = "forward_euler"
RK4 = "rk4"
INTEGRATORS = (FORWARD_EULER, RK4)


def _check_inertia(inertia) -> Array:
    inertia = np.asarray(inertia, dtype=float)
    if inertia.shape != (3,):
        raise DimensionMismatch(f"inertia must have shape (3,), got {inertia.shape}")
    if not (inertia[0] > 0 and inertia[1] > 0 and inertia[2] > 0):
        raise NonPositiveInertia(f"inertia components must be positive, got {inertia}")
    return inertia


def _rates(omega, torque, inertia) -> tuple:
    """Angular acceleration from (x, y, z) sequences of Python floats."""
    wx, wy, wz = omega
    ix, iy, iz = inertia
    return ((torque[0] - (iz - iy) * wy * wz) / ix,
            (torque[1] - (ix - iz) * wz * wx) / iy,
            (torque[2] - (iy - ix) * wx * wy) / iz)


def angular_rates(omega, torque, inertia) -> Array:
    """Angular acceleration of the rigid body: solve I*dw/dt = M - w x (I*w)."""
    return np.array(_rates(np.asarray(omega, dtype=float).tolist(),
                           np.asarray(torque, dtype=float).tolist(),
                           np.asarray(inertia, dtype=float).tolist()))


def euler_step(omega, torque, inertia, dt: float, integrator: str = FORWARD_EULER) -> Array:
    """One integrator step of the rigid-body equations (torque held constant).

    The arithmetic runs on Python floats, which round exactly as numpy
    float64 scalars do, at a fraction of their per-operation cost.
    """
    inertia = _check_inertia(inertia).tolist()
    omega = np.asarray(omega, dtype=float).tolist()
    torque = np.asarray(torque, dtype=float).tolist()
    if integrator == FORWARD_EULER:
        rates = _rates(omega, torque, inertia)
        return np.array([w + dt * r for w, r in zip(omega, rates)])
    if integrator == RK4:
        half = 0.5 * dt
        k1 = _rates(omega, torque, inertia)
        k2 = _rates([w + half * k for w, k in zip(omega, k1)], torque, inertia)
        k3 = _rates([w + half * k for w, k in zip(omega, k2)], torque, inertia)
        k4 = _rates([w + dt * k for w, k in zip(omega, k3)], torque, inertia)
        sixth = dt / 6.0
        return np.array([w + sixth * (a + 2.0 * b + 2.0 * c + d)
                         for w, a, b, c, d in zip(omega, k1, k2, k3, k4)])
    raise ValueError(f"unknown integrator {integrator!r}")


def euler_jacobians(omega, torque, inertia, dt: float) -> tuple[Array, Array]:
    """Exact Jacobians of the forward-Euler step w.r.t. the state and the
    inertia entries.  (The RK4 map has no closed form here; models built
    with RK4 fall back to numeric differentiation.)
    """
    inertia = _check_inertia(inertia)
    wx, wy, wz = omega[0], omega[1], omega[2]
    ix, iy, iz = inertia[0], inertia[1], inertia[2]
    jac_x = np.array([
        [1.0, -dt * (iz - iy) * wz / ix, -dt * (iz - iy) * wy / ix],
        [-dt * (ix - iz) * wz / iy, 1.0, -dt * (ix - iz) * wx / iy],
        [-dt * (iy - ix) * wy / iz, -dt * (iy - ix) * wx / iz, 1.0],
    ])
    jac_theta = np.array([
        [-dt * (torque[0] - (iz - iy) * wy * wz) / ix ** 2,
         dt * wy * wz / ix, -dt * wy * wz / ix],
        [-dt * wz * wx / iy,
         -dt * (torque[1] - (ix - iz) * wz * wx) / iy ** 2,
         dt * wz * wx / iy],
        [dt * wx * wy / iz, -dt * wx * wy / iz,
         -dt * (torque[2] - (iy - ix) * wx * wy) / iz ** 2],
    ])
    return jac_x, jac_theta


def _euler_jac_x_entry(omega, torque, inertia, dt, i, j):
    if i == j:
        return 1.0
    wx, wy, wz = omega[0], omega[1], omega[2]
    ix, iy, iz = inertia[0], inertia[1], inertia[2]
    if i == 0:
        return -dt * (iz - iy) * wz / ix if j == 1 else -dt * (iz - iy) * wy / ix
    if i == 1:
        return -dt * (ix - iz) * wz / iy if j == 0 else -dt * (ix - iz) * wx / iy
    return -dt * (iy - ix) * wy / iz if j == 0 else -dt * (iy - ix) * wx / iz


def _euler_jac_x_batch(states, inputs, inertia, dt):
    ix, iy, iz = inertia[0], inertia[1], inertia[2]
    wx = states[:, 0]
    wy = states[:, 1]
    wz = states[:, 2]
    jac = np.zeros((states.shape[0], 3, 3))
    jac[:, 0, 0] = 1.0
    jac[:, 1, 1] = 1.0
    jac[:, 2, 2] = 1.0
    jac[:, 0, 1] = -dt * (iz - iy) * wz / ix
    jac[:, 0, 2] = -dt * (iz - iy) * wy / ix
    jac[:, 1, 0] = -dt * (ix - iz) * wz / iy
    jac[:, 1, 2] = -dt * (ix - iz) * wx / iy
    jac[:, 2, 0] = -dt * (iy - ix) * wy / iz
    jac[:, 2, 1] = -dt * (iy - ix) * wx / iz
    return jac


def _euler_jac_theta_batch(states, inputs, inertia, dt):
    ix, iy, iz = inertia[0], inertia[1], inertia[2]
    wx = states[:, 0]
    wy = states[:, 1]
    wz = states[:, 2]
    jac = np.empty((states.shape[0], 3, 3))
    jac[:, 0, 0] = -dt * (inputs[:, 0] - (iz - iy) * wy * wz) / ix ** 2
    jac[:, 0, 1] = dt * wy * wz / ix
    jac[:, 0, 2] = -dt * wy * wz / ix
    jac[:, 1, 0] = -dt * wz * wx / iy
    jac[:, 1, 1] = -dt * (inputs[:, 1] - (ix - iz) * wz * wx) / iy ** 2
    jac[:, 1, 2] = dt * wz * wx / iy
    jac[:, 2, 0] = dt * wx * wy / iz
    jac[:, 2, 1] = -dt * wx * wy / iz
    jac[:, 2, 2] = -dt * (inputs[:, 2] - (iy - ix) * wx * wy) / iz ** 2
    return jac


def euler_sparsity_mask() -> SparsityMask:
    """Dependency pattern of the discrete attitude map.

    The forward-Euler map couples every state to every other through the
    gyroscopic term plus the identity part, so the state mask is full; the
    torque enters each axis independently.
    """
    return SparsityMask(np.ones((3, 3), dtype=int), np.eye(3, dtype=int))


def euler_attitude_model(dt: float = 0.1, integrator: str = FORWARD_EULER,
                         with_sparsity: bool = False) -> DynamicalModel:
    """Rigid-body attitude model as a discrete-time parametric model.

    State: angular velocity (rad/s).  Input: torque (N*m).  Parameters:
    diagonal inertia entries (kg*m^2), which must be positive at evaluation
    time (the optimizer may propose nonpositive values; evaluation rejects
    them).  Observation: the full state.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if integrator not in INTEGRATORS:
        raise ValueError(f"integrator must be one of {INTEGRATORS}, got {integrator!r}")
    dims = ModelDims(n_x=3, n_u=3, n_z=3, n_theta=3)
    identity = np.eye(3)
    identity.setflags(write=False)

    def f(x, u, theta):
        return euler_step(x, u, theta, dt, integrator)

    def g(x):
        return x

    def jac_g_x(x):
        return identity

    def jac_g_x_batch(states):
        return np.broadcast_to(identity, (states.shape[0], 3, 3))

    analytic = integrator == FORWARD_EULER
    return DynamicalModel(
        dims=dims, f=f, g=g,
        jac_f_x=(lambda x, u, th: euler_jacobians(x, u, _check_inertia(th), dt)[0])
        if analytic else None,
        jac_f_theta=(lambda x, u, th: euler_jacobians(x, u, _check_inertia(th), dt)[1])
        if analytic else None,
        jac_g_x=jac_g_x,
        jac_f_x_batch=(lambda s, i, th: _euler_jac_x_batch(s, i, _check_inertia(th), dt))
        if analytic else None,
        jac_f_theta_batch=(lambda s, i, th: _euler_jac_theta_batch(s, i, _check_inertia(th), dt))
        if analytic else None,
        jac_g_x_batch=jac_g_x_batch,
        jac_f_x_entry=(lambda x, u, th, i, j: _euler_jac_x_entry(x, u, _check_inertia(th), dt, i, j))
        if analytic else None,
        sparsity=euler_sparsity_mask() if with_sparsity else None,
    )


def scalar_linear_model() -> DynamicalModel:
    """One-dimensional fixture: x[k+1] = theta * x[k] + u[k], z = x."""
    dims = ModelDims(n_x=1, n_u=1, n_z=1, n_theta=1)
    one = np.array([[1.0]])
    one.setflags(write=False)
    return DynamicalModel(
        dims=dims,
        f=lambda x, u, th: np.array([th[0] * x[0] + u[0]]),
        g=lambda x: x,
        jac_f_x=lambda x, u, th: np.array([[th[0]]]),
        jac_f_theta=lambda x, u, th: np.array([[x[0]]]),
        jac_g_x=lambda x: one,
        jac_f_x_batch=lambda s, i, th: np.full((s.shape[0], 1, 1), th[0]),
        jac_f_theta_batch=lambda s, i, th: s[:, :, None].copy(),
        jac_g_x_batch=lambda s: np.broadcast_to(one, (s.shape[0], 1, 1)),
        sparsity=None,
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic description of the generated data.

    Torques are drawn per axis from N(torque_mean, torque_std^2); the
    observation noise is zero-mean with standard deviation ``obs_std`` per
    component.  Everything is a pure function of ``seed``.
    """

    torque_mean: float = 0.0
    torque_std: float = 0.0
    obs_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.torque_std < 0 or self.obs_std < 0:
            raise ValueError("standard deviations must be nonnegative")


def generate_dataset(model: DynamicalModel, x0_true, theta_true, horizon: int,
                     noise: NoiseSpec, dt: float = 1.0) -> Dataset:
    """Simulate the true system under random torques and noisy observations.

    The input and observation noise streams are split from the seed, and
    both are consumed step-by-step in order, so generating a longer horizon
    with the same seed reproduces the shorter dataset as its prefix.
    """
    if horizon < 2:
        raise DimensionMismatch(f"horizon must be >= 2, got {horizon}")
    seed_seq = np.random.SeedSequence(noise.seed)
    input_stream, obs_stream = seed_seq.spawn(2)
    rng_inputs = np.random.default_rng(input_stream)
    rng_obs = np.random.default_rng(obs_stream)
    inputs = noise.torque_mean + noise.torque_std * rng_inputs.standard_normal(
        (horizon, model.dims.n_u))
    trajectory = rollout(model, x0_true, theta_true, inputs)
    observations = trajectory.predictions + noise.obs_std * rng_obs.standard_normal(
        (horizon, model.dims.n_z))
    return Dataset(inputs, observations, dt)


def rotational_energy(omega, inertia):
    """Kinetic energy of the spinning body, (1/2) * sum_i I_i * w_i^2.

    ``omega`` may be one state or a block of shape (..., 3); the result has
    one energy per row, shape (...).
    """
    inertia = _check_inertia(inertia)
    omega = np.asarray(omega, dtype=float)
    # one (1, 3) @ (3,) product per row: numpy evaluates each with the same
    # dot routine as ``inertia @ (omega * omega)``, so a block's energies equal
    # its rows' bit for bit (an einsum or a (T, 3) @ (3,) product rounds
    # differently)
    return 0.5 * ((omega * omega)[..., None, :] @ inertia)[..., 0]


def rotational_energy_gradient(omega, inertia) -> Array:
    """Gradient of the rotational energy w.r.t. the angular velocity: I*w,
    one row per state."""
    inertia = _check_inertia(inertia)
    return inertia * np.asarray(omega, dtype=float)


def rotational_energy_term(inertia, reference: float, weight: float = 1.0) -> EnergyConservation:
    """Energy-conservation penalty for the attitude system.

    ``inertia`` is frozen into the term (the energy map must not track the
    parameters being optimized); ``reference`` is the energy level the
    trajectory should hold.
    """
    inertia = _check_inertia(inertia).copy()
    return EnergyConservation(
        energy_fn=lambda omega: rotational_energy(omega, inertia),
        reference=float(reference),
        energy_grad=lambda omega: rotational_energy_gradient(omega, inertia),
        weight=weight)
