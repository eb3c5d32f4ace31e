"""Discrete-time parametric models, datasets, trajectories, and rollouts.

A model is a pair of maps

    x[k+1] = f(x[k], u[k], theta)      (dynamics)
    z[k]   = g(x[k])                   (observation)

with ``theta`` a vector of physical parameters shared by every step.  Both
maps must be deterministic and time-invariant.  Rolling the dynamics forward
from an initial state over an input sequence produces a :class:`Trajectory`;
fitting ``theta`` and the initial state against a measured :class:`Dataset`
is the job of the ``gradient`` and ``optimizer`` modules.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteState, NonFiniteValue
from .util import format_float

if TYPE_CHECKING:
    from .structure import SparsityMask

Array = np.ndarray

FD_STEP = 1e-6


def _vector(value, n: Optional[int], name: str) -> Array:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatch(f"{name} must have length {n}, got {arr.shape[0]}")
    return arr


def _matrix(value, shape, name: str) -> Array:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise DimensionMismatch(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    return arr


def _freeze(arr: Array) -> Array:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelDims:
    """Dimensions of a model: state, input, observation, and parameter counts."""

    n_x: int
    n_u: int
    n_z: int
    n_theta: int

    def __post_init__(self):
        for name in ("n_x", "n_u", "n_z", "n_theta"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise DimensionMismatch(f"{name} must be a positive integer, got {value!r}")


def numeric_jacobian(fn: Callable[[Array], Array], point, step: float = FD_STEP) -> Array:
    """Central-difference Jacobian of ``fn`` at ``point``.

    The perturbation for component j is ``step * max(1, |point[j]|)`` so that
    badly scaled inputs keep a sensible relative step.  Raises
    :class:`NonFiniteValue` if any evaluation is non-finite.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    p = _vector(point, None, "point")
    jac = None
    for j in range(p.size):
        h = step * max(1.0, abs(p[j]))
        plus = p.copy()
        plus[j] += h
        minus = p.copy()
        minus[j] -= h
        f_plus = np.atleast_1d(np.asarray(fn(plus), dtype=float))
        f_minus = np.atleast_1d(np.asarray(fn(minus), dtype=float))
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise NonFiniteValue(f"non-finite evaluation while differencing component {j}")
        if jac is None:
            jac = np.empty((f_plus.size, p.size))
        # divide by the exact spacing of the two evaluated points, not by the
        # nominal 2h, so rounding of p +/- h does not leak into the quotient
        jac[:, j] = (f_plus - f_minus) / (plus[j] - minus[j])
    if jac is None:
        raise DimensionMismatch("point must have at least one component")
    return jac


@dataclass(frozen=True)
class DynamicalModel:
    """A parametric discrete-time model with its Jacobians.

    ``f(x, u, theta)`` and ``g(x)`` must be pure functions: identical inputs
    yield identical outputs across calls, with no hidden time dependence.
    Any Jacobian left as ``None`` is filled with a central-difference
    fallback built from ``f``/``g``.

    Optional accelerators:

    * ``jac_f_x_batch(states, inputs, theta)`` and friends evaluate the
      Jacobians at a batch of points at once, returning a stacked array.
    * ``jac_f_x_entry(x, u, theta, i, j)`` evaluates one entry of the state
      Jacobian; used by the sparsity-aware path so that structurally-zero
      entries are never computed.
    * ``sparsity`` attaches a :class:`~msid.structure.SparsityMask`; when
      present, gradient evaluation routes state-Jacobian work through the
      masked path.
    """

    dims: ModelDims
    f: Callable[[Array, Array, Array], Array]
    g: Callable[[Array], Array]
    jac_f_x: Optional[Callable[[Array, Array, Array], Array]] = None
    jac_f_theta: Optional[Callable[[Array, Array, Array], Array]] = None
    jac_g_x: Optional[Callable[[Array], Array]] = None
    jac_f_x_batch: Optional[Callable[[Array, Array, Array], Array]] = None
    jac_f_theta_batch: Optional[Callable[[Array, Array, Array], Array]] = None
    jac_g_x_batch: Optional[Callable[[Array], Array]] = None
    jac_f_x_entry: Optional[Callable[[Array, Array, Array, int, int], float]] = None
    sparsity: Optional["SparsityMask"] = None

    def __post_init__(self):
        if self.jac_f_x is None:
            object.__setattr__(
                self, "jac_f_x",
                lambda x, u, th: numeric_jacobian(lambda v: self.f(v, u, th), x))
        if self.jac_f_theta is None:
            object.__setattr__(
                self, "jac_f_theta",
                lambda x, u, th: numeric_jacobian(lambda v: self.f(x, u, v), th))
        if self.jac_g_x is None:
            object.__setattr__(
                self, "jac_g_x",
                lambda x: numeric_jacobian(self.g, x))


@dataclass(frozen=True)
class Dataset:
    """Measured input and observation sequences with their sampling period.

    ``inputs`` has shape (T, n_u) and ``observations`` (T, n_z) with T >= 2.
    Every value must be finite.  ``dt`` is metadata only; nothing in the
    package integrates over it.  Instances are immutable.
    """

    inputs: Array
    observations: Array
    dt: float = 1.0

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        observations = np.asarray(self.observations, dtype=float)
        if inputs.ndim != 2 or observations.ndim != 2:
            raise DimensionMismatch(
                f"inputs and observations must be 2-D, got {inputs.shape} and {observations.shape}")
        if inputs.shape[0] != observations.shape[0]:
            raise DimensionMismatch(
                f"inputs ({inputs.shape[0]} rows) and observations "
                f"({observations.shape[0]} rows) must have equal length")
        if inputs.shape[0] < 2:
            raise DimensionMismatch(f"need at least 2 samples, got {inputs.shape[0]}")
        if not self.dt > 0:
            raise DimensionMismatch(f"dt must be positive, got {self.dt}")
        for name, values in (("inputs", inputs), ("observations", observations)):
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                row, col = bad[0]
                raise NonFiniteValue(
                    f"{name}[{row}, {col}] is not finite ({values[row, col]})")
        object.__setattr__(self, "inputs", _freeze(inputs))
        object.__setattr__(self, "observations", _freeze(observations))
        object.__setattr__(self, "dt", float(self.dt))

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def prefix(self, horizon: int) -> "Dataset":
        """First ``horizon`` samples as a new dataset."""
        if not 2 <= horizon <= len(self):
            raise DimensionMismatch(
                f"prefix horizon must be in [2, {len(self)}], got {horizon}")
        return Dataset(self.inputs[:horizon].copy(),
                       self.observations[:horizon].copy(), self.dt)


@dataclass(frozen=True)
class Trajectory:
    """A simulated trajectory for one (parameters, initial state) candidate.

    ``states`` has shape (T+1, n_x): the initial state plus one state per
    input.  ``predictions`` has shape (T, n_z) and holds g(states[k]) for
    k = 0..T-1.  Re-evaluating the dynamics at the stored points reproduces
    the stored values bit for bit.
    """

    states: Array
    predictions: Array
    parameters: Array
    initial_state: Array

    def __post_init__(self):
        object.__setattr__(self, "states", _freeze(self.states))
        object.__setattr__(self, "predictions", _freeze(self.predictions))
        object.__setattr__(self, "parameters", _freeze(self.parameters))
        object.__setattr__(self, "initial_state", _freeze(self.initial_state))
        if self.states.shape[0] != self.predictions.shape[0] + 1:
            raise DimensionMismatch(
                f"states ({self.states.shape[0]}) must be one longer than "
                f"predictions ({self.predictions.shape[0]})")

    @property
    def horizon(self) -> int:
        return self.predictions.shape[0]


def rollout(model: DynamicalModel, x0, theta, inputs) -> Trajectory:
    """Apply the dynamics recursively over an input sequence.

    Returns a trajectory with T+1 states and T predictions for T inputs.
    Raises :class:`NonFiniteState` with the first step whose state has a
    non-finite component, signalling a divergent rollout.  Finiteness is
    checked once over all states after the loop, so ``f`` and ``g`` may be
    called on non-finite states past that step.
    """
    dims = model.dims
    x0 = _vector(x0, dims.n_x, "x0")
    theta = _vector(theta, dims.n_theta, "theta")
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != dims.n_u:
        raise DimensionMismatch(
            f"inputs must have shape (T, {dims.n_u}), got {inputs.shape}")
    horizon = inputs.shape[0]
    if horizon < 1:
        raise DimensionMismatch("inputs must contain at least one step")

    states = np.empty((horizon + 1, dims.n_x))
    predictions = np.empty((horizon, dims.n_z))
    states[0] = x0
    x = x0
    for k in range(horizon):
        z = np.asarray(model.g(x), dtype=float)
        if z.shape != (dims.n_z,):
            raise DimensionMismatch(
                f"g returned shape {z.shape}, expected ({dims.n_z},)")
        predictions[k] = z
        x = np.asarray(model.f(x, inputs[k], theta), dtype=float)
        if x.shape != (dims.n_x,):
            raise DimensionMismatch(
                f"f returned shape {x.shape}, expected ({dims.n_x},)")
        states[k + 1] = x
    finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise NonFiniteState(f"state became non-finite at step {step}", step=step)
    return Trajectory(states=states, predictions=predictions,
                      parameters=theta, initial_state=x0)


def save_dataset(path, dataset: Dataset, n_x: int) -> None:
    """Write a dataset as CSV.

    Layout: one metadata comment line ``# dt=<dt> n_x=<..> n_u=<..> n_z=<..>``,
    a header row ``k,u_1..u_{n_u},z_1..z_{n_z}``, then one row per step.
    Values carry full double precision with a locale-independent decimal point.
    """
    n_u = dataset.inputs.shape[1]
    n_z = dataset.observations.shape[1]
    with open(path, "w", newline="") as handle:
        handle.write(f"# dt={format_float(dataset.dt)} n_x={n_x} n_u={n_u} n_z={n_z}\n")
        writer = csv.writer(handle)
        writer.writerow(["k"] + [f"u_{i + 1}" for i in range(n_u)]
                        + [f"z_{i + 1}" for i in range(n_z)])
        for k in range(len(dataset)):
            row = [str(k)]
            row += [format_float(v) for v in dataset.inputs[k]]
            row += [format_float(v) for v in dataset.observations[k]]
            writer.writerow(row)


def load_dataset(path) -> tuple[Dataset, int]:
    """Read a dataset written by :func:`save_dataset`.

    Returns the dataset and the state dimension recorded in the metadata line.
    """
    with open(path, "r", newline="") as handle:
        meta_line = handle.readline().strip()
        if not meta_line.startswith("#"):
            raise DimensionMismatch(f"{path}: missing metadata comment line")
        meta = {}
        for token in meta_line.lstrip("#").split():
            key, _, value = token.partition("=")
            meta[key] = value
        try:
            dt = float(meta["dt"])
            n_x = int(meta["n_x"])
            n_u = int(meta["n_u"])
            n_z = int(meta["n_z"])
        except (KeyError, ValueError) as exc:
            raise DimensionMismatch(f"{path}: bad metadata line {meta_line!r}") from exc
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = ["k"] + [f"u_{i + 1}" for i in range(n_u)] + [f"z_{i + 1}" for i in range(n_z)]
        if header != expected:
            raise DimensionMismatch(f"{path}: unexpected header {header!r}")
        inputs, observations = [], []
        for row in reader:
            if not row:
                continue
            values = [float(v) for v in row[1:]]
            if len(values) != n_u + n_z:
                raise DimensionMismatch(f"{path}: row {row[0]} has {len(values)} values")
            inputs.append(values[:n_u])
            observations.append(values[n_u:])
    return Dataset(np.array(inputs), np.array(observations), dt), n_x
