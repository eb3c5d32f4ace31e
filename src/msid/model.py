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
    """Central-difference Jacobian of ``fn``, row by row.

    ``point`` is one point of shape (n,) or a block of points of shape
    (..., n); ``fn`` maps such a block to one result per row, of shape
    (..., m) or, for a scalar map, (...).  The Jacobian has shape
    (..., m, n), or (..., n) for a scalar map.  Each column j takes one
    evaluation of ``fn`` on the whole block per side.  The perturbation of
    component j is ``step * max(1, |point[..., j]|)`` so that badly scaled
    inputs keep a sensible relative step.  Raises :class:`NonFiniteValue` if
    any evaluation is non-finite.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    p = np.asarray(point, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise DimensionMismatch("point must have at least one component")
    columns = []
    for j in range(p.shape[-1]):
        h = step * np.maximum(1.0, np.abs(p[..., j]))
        plus = p.copy()
        plus[..., j] += h
        minus = p.copy()
        minus[..., j] -= h
        f_plus = np.asarray(fn(plus), dtype=float)
        f_minus = np.asarray(fn(minus), dtype=float)
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise NonFiniteValue(f"non-finite evaluation while differencing component {j}")
        # divide by the exact spacing of the two evaluated points, not by the
        # nominal 2h, so rounding of p +/- h does not leak into the quotient
        spacing = plus[..., j] - minus[..., j]
        if f_plus.ndim > spacing.ndim:
            spacing = spacing[..., None]
        columns.append((f_plus - f_minus) / spacing)
    return np.stack(columns, axis=-1)


def check_rows(name: str, result, shape: tuple) -> Array:
    """``result`` of the map ``name`` as an array, checked to have ``shape``,
    one row per row of the block the map was handed (a map written for one
    point may broadcast a block into another shape)."""
    result = np.asarray(result, dtype=float)
    if result.shape != shape:
        raise DimensionMismatch(
            f"{name} must be row-wise: gave shape {result.shape}, expected {shape}")
    return result


@dataclass(frozen=True)
class DynamicalModel:
    """A parametric discrete-time model with its Jacobians.

    ``f(x, u, theta)`` and ``g(x)`` must be pure functions: identical inputs
    yield identical outputs across calls, with no hidden time dependence.
    Both are row-wise, for every model: ``f`` maps (N, n_x) states, (N, n_u)
    inputs and one theta or N of them to (N, n_x), and ``g`` maps (N, n_x)
    states to (N, n_z); a single point (n_x,) maps to one row.
    ``simulate(x0, inputs, theta)``, when given, rolls ``f`` out in one call:
    (T+1, n_x) states for (T, n_u) inputs, row 0 being ``x0`` and row k+1
    ``f(row k, inputs[k], theta)`` bit for bit.  :func:`rollout` calls it, or
    else ``f`` on points, and ``g`` once on the whole block of states; it
    raises :class:`DimensionMismatch` on any other shape.  ``simulate`` is
    never derived from ``f``: a model that replaces ``f`` replaces it too.

    The three Jacobians are batched: ``jac_f_x_batch(states, inputs,
    theta)``, ``jac_f_theta_batch(states, inputs, theta)`` and
    ``jac_g_x_batch(states)`` map a block of N rows to the N matrices of f
    by the state, f by the parameters and g by the state, stacked with
    shapes (N, n_x, n_x), (N, n_x, n_theta) and (N, n_z, n_x); the gradient
    raises :class:`DimensionMismatch`, naming the Jacobian, on any other
    shape.  A Jacobian not given is differenced centrally, one
    :func:`numeric_jacobian` call on the whole block, which calls ``f`` or
    ``g`` on blocks.

    ``sparsity`` optionally attaches a :class:`~msid.structure.SparsityMask`;
    the gradient then sets the state Jacobian to zero outside the mask, from
    one ``jac_f_x_batch`` call per trajectory, and
    ``msid.structure.entry_evaluations`` counts the entries kept.
    """

    dims: ModelDims
    f: Callable[[Array, Array, Array], Array]
    g: Callable[[Array], Array]
    jac_f_x_batch: Optional[Callable[[Array, Array, Array], Array]] = None
    jac_f_theta_batch: Optional[Callable[[Array, Array, Array], Array]] = None
    jac_g_x_batch: Optional[Callable[[Array], Array]] = None
    sparsity: Optional["SparsityMask"] = None
    simulate: Optional[Callable[[Array, Array, Array], Array]] = None

    # not fields: perfbench/spans.py JACOBIAN_FIELDS still reads these names
    jac_f_x = jac_f_theta = jac_g_x = None

    def __post_init__(self):
        f, g = self.f, self.g
        n_x, n_z = self.dims.n_x, self.dims.n_z
        # central differences of each map over the whole block of rows
        differenced = {
            "jac_f_x_batch": lambda states, inputs, theta: numeric_jacobian(
                lambda block: check_rows("f", f(block, inputs, theta), (len(block), n_x)),
                states),
            "jac_f_theta_batch": lambda states, inputs, theta: numeric_jacobian(
                lambda block: check_rows("f", f(states, inputs, block), (len(block), n_x)),
                np.broadcast_to(theta, (len(states),) + np.shape(theta))),
            "jac_g_x_batch": lambda states: numeric_jacobian(
                lambda block: check_rows("g", g(block), (len(block), n_z)), states),
        }
        for name, fallback in differenced.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, fallback)


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
    The states are one ``model.simulate`` call, shape-checked, if the model
    has one, else one ``f`` call per step, the shape checked at step 0; ``g``
    is called once, on the (T, n_x) block of states.  Raises
    :class:`NonFiniteState` with the first step whose state has a non-finite
    component, signalling a divergent rollout; finiteness is checked once.
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

    if model.simulate is not None:
        states = np.asarray(model.simulate(x0, inputs, theta), dtype=float)
        if states.shape != (horizon + 1, dims.n_x):
            raise DimensionMismatch(f"simulate gave shape {states.shape}, expected "
                                    f"{(horizon + 1, dims.n_x)}")
    else:
        states = np.empty((horizon + 1, dims.n_x))
        states[0] = x0
        states[1] = check_rows("f", model.f(x0, inputs[0], theta), (dims.n_x,))
        for k in range(1, horizon):
            states[k + 1] = model.f(states[k], inputs[k], theta)
    finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise NonFiniteState(f"state became non-finite at step {step}", step=step)
    predictions = check_rows("g", model.g(states[:horizon]), (horizon, dims.n_z))
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
            if len(row) - 1 != n_u + n_z:
                raise DimensionMismatch(f"{path}: row {row[0]} has {len(row) - 1} values")
            values = []
            for column, text in zip(expected[1:], row[1:]):
                try:
                    values.append(float(text))
                except ValueError:
                    raise DimensionMismatch(
                        f"{path}: row {row[0]}, column {column}: {text!r} is not a number"
                    ) from None
            inputs.append(values[:n_u])
            observations.append(values[n_u:])
    return Dataset(np.array(inputs), np.array(observations), dt), n_x
