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
from functools import partial

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


def _coupling(i, scale) -> tuple:
    """``scale * (I_l - I_j) / I_i`` for each cyclic (i, j, l) from the
    inertia's (x, y, z) floats or columns: the rates' gyroscopic
    coefficients with ``scale`` 1, a forward-Euler step's with ``scale`` dt."""
    ix, iy, iz = i
    return (scale * (iz - iy) / ix, scale * (ix - iz) / iy, scale * (iy - ix) / iz)


def _rates(w, terms, coupling) -> tuple:
    """``terms_i - coupling_i * (w_j * w_l)`` on (x, y, z) floats or columns:
    the angular acceleration from M/I and (I_l - I_j)/I_i, or the
    forward-Euler increment from M*(dt/I) and dt*(I_l - I_j)/I_i."""
    (wx, wy, wz), (tx, ty, tz), (cx, cy, cz) = w, terms, coupling
    return (tx - cx * (wy * wz), ty - cy * (wz * wx), tz - cz * (wx * wy))


def _advance(w, m, i, dt, integrator: str) -> list:
    """One integrator step on (x, y, z) sequences: floats or columns, the
    inertia divided out once per call, not once per stage and component."""
    if integrator == FORWARD_EULER:
        rx, ry, rz = _rates(w, (m[0] * (dt / i[0]), m[1] * (dt / i[1]), m[2] * (dt / i[2])),
                            _coupling(i, dt))
        return [w[0] + rx, w[1] + ry, w[2] + rz]
    if integrator == RK4:
        half, sixth = 0.5 * dt, dt / 6.0
        t, e = (m[0] / i[0], m[1] / i[1], m[2] / i[2]), _coupling(i, 1.0)
        ax, ay, az = _rates(w, t, e)
        bx, by, bz = _rates((w[0] + half * ax, w[1] + half * ay, w[2] + half * az), t, e)
        cx, cy, cz = _rates((w[0] + half * bx, w[1] + half * by, w[2] + half * bz), t, e)
        dx, dy, dz = _rates((w[0] + dt * cx, w[1] + dt * cy, w[2] + dt * cz), t, e)
        return [w[0] + sixth * (ax + 2.0 * bx + 2.0 * cx + dx),
                w[1] + sixth * (ay + 2.0 * by + 2.0 * cy + dy),
                w[2] + sixth * (az + 2.0 * bz + 2.0 * cz + dz)]
    raise ValueError(f"unknown integrator {integrator!r}")


def _points(omega: Array, torque: Array, inertia: Array) -> tuple:
    """Three float arrays as lists; DimensionMismatch unless each has shape (3,)."""
    if not omega.shape == torque.shape == inertia.shape == (3,):
        raise DimensionMismatch(f"omega, torque and inertia must have shape (3,), got "
                                f"{omega.shape}, {torque.shape} and {inertia.shape}")
    return omega.tolist(), torque.tolist(), inertia.tolist()


def angular_rates(omega, torque, inertia) -> Array:
    """Angular acceleration of the rigid body: solve I*dw/dt = M - w x (I*w)."""
    omega, torque, inertia = (np.asarray(a, dtype=float) for a in (omega, torque, inertia))
    w, m, i = _points(omega, torque, inertia)
    _check_inertia(inertia)
    return np.array(_rates(w, (m[0] / i[0], m[1] / i[1], m[2] / i[2]), _coupling(i, 1.0)))


def euler_step(omega, torque, inertia, dt: float, integrator: str = FORWARD_EULER) -> Array:
    """One integrator step of the rigid-body equations (torque held constant).

    Row-wise: each of ``omega``, ``torque`` and ``inertia`` may be a point
    (3,) or a block (..., 3), giving one row per broadcast row.  Three points
    run on Python floats, which round as numpy float64 does at a fraction of
    its per-operation cost; a block runs the same formulas elementwise on its
    columns, so each row equals the step on that row alone bit for bit.
    """
    omega, torque, inertia = (np.asarray(a, dtype=float) for a in (omega, torque, inertia))
    point = omega.ndim == torque.ndim == inertia.ndim == 1
    if point:
        w, m, i = _points(omega, torque, inertia)
        # the inertia check on the floats at hand; _check_inertia names the fault
        if not (i[0] > 0 and i[1] > 0 and i[2] > 0):
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
    ``torques[k]`` bit for bit.  The inertia is checked and divided out once,
    the torque terms of every step in one numpy pass.  The steps run on
    Python floats, read from those terms and written into the states one at
    a time, so the Python objects held do not grow with T.  Each integrator
    writes ``_advance`` and ``_rates`` out in order: no call per step."""
    inertia = _check_inertia(inertia)
    torques = np.ascontiguousarray(torques, dtype=float)
    if np.shape(omega0) != (3,) or torques.ndim != 2 or torques.shape[1] != 3:
        raise DimensionMismatch(f"need omega0 (3,) and torques (T, 3), got "
                                f"{np.shape(omega0)} and {torques.shape}")
    if integrator not in INTEGRATORS:
        raise ValueError(f"unknown integrator {integrator!r}")
    euler = integrator == FORWARD_EULER
    cx, cy, cz = _coupling(inertia.tolist(), dt if euler else 1.0)
    terms = torques * (dt / inertia) if euler else torques / inertia
    states = np.empty((len(torques) + 1, 3))
    states[0] = omega0
    wx, wy, wz = states[0].tolist()
    out = memoryview(states.reshape(-1))
    values = iter(memoryview(terms.reshape(-1)))
    j = 3
    if euler:
        for tx, ty, tz in zip(values, values, values):
            wx, wy, wz = (wx + (tx - cx * (wy * wz)), wy + (ty - cy * (wz * wx)),
                          wz + (tz - cz * (wx * wy)))
            out[j], out[j + 1], out[j + 2] = wx, wy, wz
            j += 3
        return states
    half, sixth = 0.5 * dt, dt / 6.0
    for tx, ty, tz in zip(values, values, values):
        ax, ay, az = tx - cx * (wy * wz), ty - cy * (wz * wx), tz - cz * (wx * wy)
        px, py, pz = wx + half * ax, wy + half * ay, wz + half * az
        bx, by, bz = tx - cx * (py * pz), ty - cy * (pz * px), tz - cz * (px * py)
        px, py, pz = wx + half * bx, wy + half * by, wz + half * bz
        qx, qy, qz = tx - cx * (py * pz), ty - cy * (pz * px), tz - cz * (px * py)
        px, py, pz = wx + dt * qx, wy + dt * qy, wz + dt * qz
        dx, dy, dz = tx - cx * (py * pz), ty - cy * (pz * px), tz - cz * (px * py)
        wx, wy, wz = (wx + sixth * (ax + 2.0 * bx + 2.0 * qx + dx),
                      wy + sixth * (ay + 2.0 * by + 2.0 * qy + dy),
                      wz + sixth * (az + 2.0 * bz + 2.0 * qz + dz))
        out[j], out[j + 1], out[j + 2] = wx, wy, wz
        j += 3
    return states


_CYCLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # (i, j, l): each axis, then the next two


def _euler_jac_x_batch(states, inputs, inertia, dt):
    """Forward-Euler state Jacobians, one per row of ``states``: 1 on the
    diagonal, ``-c_i * w_l`` by w_j and ``-c_i * w_j`` by w_l.  Both
    Jacobians are (T, 3, 3) views of a (3, 3, T) block, written by rows."""
    c = _coupling(_check_inertia(inertia).tolist(), dt)
    w = states.T
    jac = np.empty((3, 3, states.shape[0]))
    for i, j, l in _CYCLE:
        jac[i, i] = 1.0
        jac[i, j] = -c[i] * w[l]
        jac[i, l] = -c[i] * w[j]
    return jac.transpose(2, 0, 1)


def _euler_jac_theta_batch(states, inputs, inertia, dt):
    """Forward-Euler parameter Jacobians, one per row: with ``s = dt / I``
    and ``P_i = w_j * w_l``, ``(c_i * P_i - u_i * s_i) / I_i`` by I_i,
    ``s_i * P_i`` by I_j and ``-s_i * P_i`` by I_l."""
    inertia = _check_inertia(inertia)
    moments, c, s = inertia.tolist(), _coupling(inertia.tolist(), dt), (dt / inertia).tolist()
    w, u = states.T, inputs.T
    jac = np.empty((3, 3, states.shape[0]))
    for i, j, l in _CYCLE:
        p = w[j] * w[l]
        jac[i, i] = (c[i] * p - u[i] * s[i]) / moments[i]
        jac[i, j] = s[i] * p
        jac[i, l] = -s[i] * p
    return jac.transpose(2, 0, 1)


def _constant_stack(matrix: Array, rows: int) -> Array:
    """``np.broadcast_to(matrix, (rows,) + matrix.shape)`` of a read-only
    ``matrix``, a third of its cost: one read-only view of stride 0."""
    return np.ndarray((rows,) + matrix.shape, matrix.dtype, matrix, 0, (0,) + matrix.strides)


def euler_sparsity_mask() -> SparsityMask:
    """Dependency pattern of the discrete attitude map: full, since the
    gyroscopic term couples every state to the two others."""
    return SparsityMask(np.ones((3, 3), dtype=int))


def euler_attitude_model(dt: float = 0.1, integrator: str = FORWARD_EULER,
                         with_sparsity: bool = False) -> DynamicalModel:
    """Rigid-body attitude model as a discrete-time parametric model.

    State: angular velocity (rad/s).  Input: torque (N*m).  Parameters:
    diagonal inertia entries (kg*m^2), which must be positive at evaluation
    time (the optimizer may propose nonpositive values; evaluation rejects
    them).  Observation: the full state.  The forward-Euler map has exact
    Jacobians; the RK4 map gives none, so ``transition_jacobians`` differences
    both from one stacked ``f`` call.  Either rolls out through
    :func:`attitude_trajectory`.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if integrator not in INTEGRATORS:
        raise ValueError(f"integrator must be one of {INTEGRATORS}, got {integrator!r}")
    dims = ModelDims(n_x=3, n_u=3, n_z=3, n_theta=3)
    identity = np.eye(3)
    identity.setflags(write=False)

    def f(x, u, theta):
        return euler_step(x, u, theta, dt, integrator)

    def g(x):
        return x

    analytic = integrator == FORWARD_EULER
    return DynamicalModel(
        dims=dims, f=f, g=g,
        jac_f_x_batch=partial(_euler_jac_x_batch, dt=dt) if analytic else None,
        jac_f_theta_batch=partial(_euler_jac_theta_batch, dt=dt) if analytic else None,
        jac_g_x_batch=lambda s: _constant_stack(identity, len(s)),
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
        jac_g_x_batch=lambda s: _constant_stack(one, len(s)),
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
