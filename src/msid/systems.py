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


def _check_inertia(inertia, rows: bool = False) -> Array:
    """The inertia as an array, checked: shape (3,), or (..., 3) with
    ``rows``, and every entry positive (NaN is not)."""
    inertia = np.asarray(inertia, dtype=float)
    if inertia.shape == (3,):
        ix, iy, iz = inertia.tolist()
        if ix > 0 and iy > 0 and iz > 0:
            return inertia
    elif rows and inertia.shape[-1:] == (3,):
        if (inertia > 0).all():
            return inertia
    else:
        expected = "(..., 3)" if rows else "(3,)"
        raise DimensionMismatch(f"inertia must have shape {expected}, got {inertia.shape}")
    raise NonPositiveInertia(f"inertia components must be positive, got {inertia}")


def _rates(omega, torque, inertia) -> tuple:
    """Angular acceleration from (x, y, z) sequences: floats or columns."""
    wx, wy, wz = omega
    ix, iy, iz = inertia
    return ((torque[0] - (iz - iy) * wy * wz) / ix,
            (torque[1] - (ix - iz) * wz * wx) / iy,
            (torque[2] - (iy - ix) * wx * wy) / iz)


def _advance(w, m, i, dt, integrator: str) -> list:
    """One integrator step on (x, y, z) sequences: floats or columns."""
    if integrator == FORWARD_EULER:
        rx, ry, rz = _rates(w, m, i)
        return [w[0] + dt * rx, w[1] + dt * ry, w[2] + dt * rz]
    if integrator == RK4:
        half, sixth = 0.5 * dt, dt / 6.0
        ax, ay, az = _rates(w, m, i)
        bx, by, bz = _rates((w[0] + half * ax, w[1] + half * ay, w[2] + half * az), m, i)
        cx, cy, cz = _rates((w[0] + half * bx, w[1] + half * by, w[2] + half * bz), m, i)
        dx, dy, dz = _rates((w[0] + dt * cx, w[1] + dt * cy, w[2] + dt * cz), m, i)
        return [w[0] + sixth * (ax + 2.0 * bx + 2.0 * cx + dx),
                w[1] + sixth * (ay + 2.0 * by + 2.0 * cy + dy),
                w[2] + sixth * (az + 2.0 * bz + 2.0 * cz + dz)]
    raise ValueError(f"unknown integrator {integrator!r}")


def angular_rates(omega, torque, inertia) -> Array:
    """Angular acceleration of the rigid body: solve I*dw/dt = M - w x (I*w)."""
    return np.array(_rates(np.asarray(omega, dtype=float).tolist(),
                           np.asarray(torque, dtype=float).tolist(),
                           np.asarray(inertia, dtype=float).tolist()))


def euler_step(omega, torque, inertia, dt: float, integrator: str = FORWARD_EULER) -> Array:
    """One integrator step of the rigid-body equations (torque held constant).

    Row-wise: each of ``omega``, ``torque`` and ``inertia`` may be a point
    (3,) or a block (..., 3), giving one row per broadcast row.  Three points
    run on Python floats, which round as numpy float64 does at a fraction of
    its per-operation cost; a block runs the same formulas elementwise on its
    columns, so each row equals the step on that row alone bit for bit.
    """
    omega = np.asarray(omega, dtype=float)
    torque = np.asarray(torque, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    point = omega.ndim == torque.ndim == inertia.ndim == 1
    if point:
        w, m, i = omega.tolist(), torque.tolist(), inertia.tolist()
        # the inertia check on the floats at hand; _check_inertia names the fault
        if not (len(i) == 3 and i[0] > 0 and i[1] > 0 and i[2] > 0):
            _check_inertia(inertia)
    elif omega.shape[-1:] == torque.shape[-1:] == (3,):
        inertia = _check_inertia(inertia, rows=True)
        w, m, i = ((a[..., 0], a[..., 1], a[..., 2])
                   for a in np.broadcast_arrays(omega, torque, inertia))
    else:
        raise DimensionMismatch(
            f"omega and torque must have shape (..., 3), got {omega.shape} and {torque.shape}")
    step = _advance(w, m, i, dt, integrator)
    return np.array(step) if point else np.stack(step, axis=-1)


def attitude_trajectory(omega0, torques, inertia, dt: float,
                        integrator: str = FORWARD_EULER) -> Array:
    """Every state of a rollout, shape (T+1, 3) for torques of shape (T, 3):
    row 0 is ``omega0`` and row k+1 equals ``euler_step`` of row k under
    ``torques[k]`` bit for bit.  The inertia is checked once, and the steps
    run on Python floats, read from ``torques`` and written into the states
    one at a time, so the Python objects held do not grow with T."""
    inertia = _check_inertia(inertia).tolist()
    torques = np.ascontiguousarray(torques, dtype=float)
    if np.shape(omega0) != (3,) or torques.ndim != 2 or torques.shape[1] != 3:
        raise DimensionMismatch(f"need omega0 (3,) and torques (T, 3), got "
                                f"{np.shape(omega0)} and {torques.shape}")
    states = np.empty((len(torques) + 1, 3))
    states[0] = omega0
    w = states[0].tolist()
    out = memoryview(states.reshape(-1))
    values = iter(memoryview(torques.reshape(-1)))
    j = 3
    for m in zip(values, values, values):
        w = _advance(w, m, inertia, dt, integrator)
        out[j], out[j + 1], out[j + 2] = w
        j += 3
    return states


def _euler_jac_x_batch(states, inputs, inertia, dt):
    ix, iy, iz = _check_inertia(inertia)
    wx, wy, wz = states.T
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
    ix, iy, iz = _check_inertia(inertia)
    wx, wy, wz = states.T
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
    gyroscopic term plus the identity part, so the state mask is full.
    """
    return SparsityMask(np.ones((3, 3), dtype=int))


def euler_attitude_model(dt: float = 0.1, integrator: str = FORWARD_EULER,
                         with_sparsity: bool = False) -> DynamicalModel:
    """Rigid-body attitude model as a discrete-time parametric model.

    State: angular velocity (rad/s).  Input: torque (N*m).  Parameters:
    diagonal inertia entries (kg*m^2), which must be positive at evaluation
    time (the optimizer may propose nonpositive values; evaluation rejects
    them).  Observation: the full state.  The forward-Euler map has exact
    Jacobians; the RK4 map falls back to central differences.  Either one
    rolls out through :func:`attitude_trajectory`.
    """
    if not dt > 0:
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

    def jac_g_x_batch(states):
        return np.broadcast_to(identity, (states.shape[0], 3, 3))

    analytic = integrator == FORWARD_EULER
    return DynamicalModel(
        dims=dims, f=f, g=g,
        jac_f_x_batch=(lambda s, u, th: _euler_jac_x_batch(s, u, th, dt))
        if analytic else None,
        jac_f_theta_batch=(lambda s, u, th: _euler_jac_theta_batch(s, u, th, dt))
        if analytic else None,
        jac_g_x_batch=jac_g_x_batch,
        sparsity=euler_sparsity_mask() if with_sparsity else None,
        simulate=lambda x0, u, th: attitude_trajectory(x0, u, th, dt, integrator),
    )


def scalar_linear_model() -> DynamicalModel:
    """One-dimensional fixture: x[k+1] = theta * x[k] + u[k], z = x."""
    dims = ModelDims(n_x=1, n_u=1, n_z=1, n_theta=1)
    one = np.array([[1.0]])
    one.setflags(write=False)
    return DynamicalModel(
        dims=dims,
        f=lambda x, u, th: th[..., :1] * x + u,
        g=lambda x: x,
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
        if not (self.torque_std >= 0 and self.obs_std >= 0):
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
