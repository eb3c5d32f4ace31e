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

if TYPE_CHECKING:
    from .structure import SparsityMask

Array = np.ndarray

FD_STEP = 1e-6

# Most rows of the stacked block that numeric_jacobian hands to one call of
# its map; a larger stack is split into groups of whole perturbed copies.
# Set from the per-row time of the RK4 attitude step on one block: lowest
# at 3,072-4,096 rows (91-117 ns), higher from 5,120 rows on (108-154 ns),
# about where an (N, 3) float block passes glibc's 128 KiB mmap threshold
# (N = 5,462).  Measured on a 2-core x86 VM, Python 3.11, numpy 2.4.  The
# RK4 model's joint (x, theta) stack at T=200 is 12 x 199 = 2,388 rows, one
# f call; at T=3200 each of the 12 copies of 3,199 rows is a call of its own.
ROW_BUDGET = 4096


def _is_number(value) -> bool:
    """True for one real number: a 0-D value of integer or float dtype, so
    not an array, a bool or a string."""
    return np.ndim(value) == 0 and np.asarray(value).dtype.kind in "iuf"


def _is_count(value, low: int) -> bool:
    """True for a Python or numpy integer >= ``low``, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


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
            if not _is_count(value, 1):
                raise DimensionMismatch(f"{name} must be a positive integer, got {value!r}")


def numeric_jacobian(fn: Callable[[Array], Array], point, step: float = FD_STEP) -> Array:
    """Central-difference Jacobian of ``fn``, row by row, in one stacked call.

    ``point`` is one point of shape (n,) or a block of points of shape
    (..., n); ``fn`` must be row-wise over its leading axes: it maps a block
    of shape (k, ...) + (n,) to one result per row, of shape (k, ...) + (m,)
    or, for a scalar map, (k, ...).  The Jacobian, a view in no set order,
    has shape (..., m, n), or (..., n) for a scalar map.  Component j moves by
    ``step * max(1, |point[..., j]|)`` so that badly scaled inputs keep a
    sensible relative step, and each quotient is divided by the exact
    spacing of its two points.  All 2n perturbed copies of ``point`` are
    stacked on a new leading axis and ``fn`` is called once on the stack,
    or, where the stack would exceed ``ROW_BUDGET`` rows, once per group of
    whole copies, in the fewest groups that fit.  Raises
    :class:`NonFiniteValue` naming the point's first non-finite component
    before any evaluation, :class:`DimensionMismatch` if a result has not one
    row per stacked point, and :class:`NonFiniteValue` naming the first
    component whose perturbed evaluations are non-finite.
    """
    if not (_is_number(step) and 0 < step < np.inf):
        raise ValueError(f"step must be positive and finite, got {step}")
    p = np.asarray(point, dtype=float)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise DimensionMismatch("point must have at least one component")
    n = p.shape[-1]
    if not np.isfinite(p).all():
        point_finite = np.isfinite(p.reshape(-1, n)).all(axis=0)
        raise NonFiniteValue(f"point is not finite at component {np.argmin(point_finite)}")
    # moved[c] is the perturbed component c // 2 of copy c: copy 2j moves
    # component j up by its shift and copy 2j+1 down by it
    shift, moved = step * np.maximum(1.0, np.abs(p)), np.empty((2 * n,) + p.shape[:-1])
    moved[0::2], moved[1::2] = np.moveaxis(p + shift, -1, 0), np.moveaxis(p - shift, -1, 0)
    per_group, values = max(1, ROW_BUDGET // max(p[..., 0].size, 1)), []
    for start in range(0, 2 * n, per_group):
        copies = np.arange(start, min(start + per_group, 2 * n))
        group = np.empty((len(copies),) + p.shape)
        group[...] = p
        group[copies - start, ..., copies // 2] = moved[copies]
        out = np.asarray(fn(group), dtype=float)
        if out.shape[:p.ndim] != group.shape[:-1] or out.ndim > p.ndim + 1:
            raise DimensionMismatch(
                f"fn must be row-wise: gave shape {out.shape} for points of "
                f"shape {group.shape}")
        if not np.isfinite(out).all():
            finite = np.isfinite(out.reshape(len(group), -1)).all(axis=1)
            raise NonFiniteValue("non-finite evaluation while differencing component "
                                 f"{(start + np.argmin(finite)) // 2}")
        values.append(out)
    values = values[0] if len(values) == 1 else np.concatenate(values)
    # divide by the exact spacing of the two evaluated points, not by the
    # nominal 2h, so rounding of p +/- h does not leak into it
    spacing = moved[0::2] - moved[1::2]
    if values.ndim > p.ndim:
        spacing = spacing[..., None]
    return np.moveaxis((values[0::2] - values[1::2]) / spacing, 0, -1)


def check_rows(name: str, result, shape: tuple) -> Array:
    """``result`` of the map ``name`` as an array, checked to have ``shape``,
    one row per row of the block the map was handed (a map written for one
    point may broadcast a block into another shape)."""
    result = np.asarray(result, dtype=float)
    if result.shape != shape:
        raise DimensionMismatch(
            f"{name} must be row-wise: gave shape {result.shape}, expected {shape}")
    return result


def _as_one_block(name: str, n_out: int, stack: Array, evaluate) -> Array:
    """``evaluate(block)`` on the (copies, N, n) ``stack`` flattened to one
    (copies * N, n) block, checked row-wise and shaped (copies, N, n_out)."""
    block = stack.reshape(-1, stack.shape[-1])
    return check_rows(name, evaluate(block), (len(block), n_out)).reshape(
        stack.shape[:-1] + (n_out,))


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

    The three Jacobians are batched and optional: ``jac_f_x_batch(states,
    inputs, theta)``, ``jac_f_theta_batch(states, inputs, theta)`` and
    ``jac_g_x_batch(states)`` map N rows to the N matrices of f by the
    state, f by theta and g by the state.  The two Jacobians of ``f`` come
    together or not at all: a model given one of them alone, also by
    ``dataclasses.replace``, raises :class:`DimensionMismatch` naming the
    other, and a field given but not callable names itself.  A field not
    given stays ``None``: :meth:`transition_jacobians` and
    :meth:`observation_jacobians` difference the model's current ``f`` and
    ``g`` for it, also after ``dataclasses.replace``.

    ``sparsity`` optionally attaches a :class:`~msid.structure.SparsityMask`:
    the gradient zeroes the state Jacobians outside it by one
    :func:`~msid.structure.masked_jac_f_x` call, which counts the entries kept.
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
        for name in ("f", "g", "jac_f_x_batch", "jac_f_theta_batch", "jac_g_x_batch", "simulate"):
            value = getattr(self, name)
            if not callable(value) and (value is not None or name in ("f", "g")):
                raise DimensionMismatch(f"{name} must be callable, got {value!r}")
        if (self.jac_f_x_batch is None) != (self.jac_f_theta_batch is None):
            missing = "jac_f_x_batch" if self.jac_f_x_batch is None else "jac_f_theta_batch"
            raise DimensionMismatch(f"{missing} is missing: the two Jacobians of f come "
                                    "together or not at all")

    def transition_jacobians(self, states, inputs, theta) -> tuple[Array, Array]:
        """The Jacobians (N, n_x, n_x) and (N, n_x, n_theta) of ``f`` by the
        state and by theta at (N, n_x) states and (N, n_u) inputs.

        One call of each Jacobian field, shape-checked, if the model gives
        them; else two views of one (N, n_x, n_x + n_theta) block from one
        :func:`numeric_jacobian` call over the (x, theta) columns, which
        hands every perturbed copy to one ``f`` call (a few above
        ``ROW_BUDGET`` rows), the inputs tiled.  Either view keeps the whole
        block alive; copy one to keep it alone.  A non-finite state or theta
        there raises :class:`NonFiniteValue` naming it as ``x[j]`` or
        ``theta[j]``.
        """
        n_x, n_u, n_theta = self.dims.n_x, self.dims.n_u, self.dims.n_theta
        states, inputs = np.asarray(states, dtype=float), np.asarray(inputs, dtype=float)
        rows = len(states) if states.ndim == 2 else -1
        if states.shape != (rows, n_x) or inputs.shape != (rows, n_u):
            raise DimensionMismatch(f"states {states.shape} and inputs {inputs.shape} must "
                                    f"have shapes (N, {n_x}) and (N, {n_u})")
        if self.jac_f_x_batch is not None:
            return (check_rows("jac_f_x_batch", self.jac_f_x_batch(states, inputs, theta),
                               (rows, n_x, n_x)),
                    check_rows("jac_f_theta_batch", self.jac_f_theta_batch(states, inputs, theta),
                               (rows, n_x, n_theta)))
        theta = _vector(theta, n_theta, "theta")
        for name, values in (("x", states), ("theta", theta)):
            if not np.isfinite(values).all():
                finite = np.isfinite(values).reshape(-1, values.shape[-1]).all(axis=0)
                raise NonFiniteValue(f"{name}[{np.argmin(finite)}] is not finite")
        point = np.concatenate([states, np.broadcast_to(theta, (rows, n_theta))], axis=1)

        def joint_f(stack):
            tiled = inputs if len(stack) == 1 else np.tile(inputs, (len(stack), 1))
            return _as_one_block("f", n_x, stack,
                                 lambda block: self.f(block[:, :n_x], tiled, block[:, n_x:]))

        jac = numeric_jacobian(joint_f, point)
        return jac[..., :n_x], jac[..., n_x:]

    def observation_jacobians(self, states) -> Array:
        """The Jacobians (N, n_z, n_x) of ``g`` at (N, n_x) states: one call of
        ``jac_g_x_batch``, shape-checked, else ``g`` differenced in one call."""
        n_z, g = self.dims.n_z, self.g
        if self.jac_g_x_batch is not None:
            return check_rows("jac_g_x_batch", self.jac_g_x_batch(states),
                              (len(states), n_z, self.dims.n_x))
        return numeric_jacobian(lambda stack: _as_one_block("g", n_z, stack, g), states)


@dataclass(frozen=True)
class Dataset:
    """Measured input and observation sequences with their sampling period.

    ``inputs`` has shape (T, n_u) and ``observations`` (T, n_z) with T >= 2.
    Every value must be finite.  ``dt`` is metadata only; nothing in the
    package integrates over it.  Instances are immutable copies.
    """

    inputs: Array
    observations: Array
    dt: float = 1.0

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=float)
        observations = np.array(self.observations, dtype=float)
        if inputs.ndim != 2 or observations.ndim != 2:
            raise DimensionMismatch(
                f"inputs and observations must be 2-D, got {inputs.shape} and {observations.shape}")
        if inputs.shape[0] != observations.shape[0]:
            raise DimensionMismatch(
                f"inputs ({inputs.shape[0]} rows) and observations "
                f"({observations.shape[0]} rows) must have equal length")
        if inputs.shape[0] < 2:
            raise DimensionMismatch(f"need at least 2 samples, got {inputs.shape[0]}")
        if not (_is_number(self.dt) and 0 < self.dt < np.inf):
            raise DimensionMismatch(f"dt must be positive and finite, got {self.dt}")
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
        if not (_is_count(horizon, 2) and horizon <= len(self)):
            raise DimensionMismatch(
                f"prefix horizon must be in [2, {len(self)}], got {horizon}")
        return Dataset(self.inputs[:horizon], self.observations[:horizon], self.dt)


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

    def __post_init__(self):
        for name in ("states", "predictions", "parameters"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
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
    if not np.isfinite(states[1:]).all():
        step = int(np.argmin(np.isfinite(states[1:]).all(axis=1))) + 1
        raise NonFiniteState(f"state became non-finite at step {step}", step=step)
    predictions = check_rows("g", model.g(states[:horizon]), (horizon, dims.n_z))
    return Trajectory(states=states, predictions=predictions, parameters=theta.copy())


def format_float(value) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(value))


def save_dataset(path, dataset: Dataset, n_x: int) -> None:
    """Write a dataset as CSV.

    Layout: one metadata comment line ``# dt=<dt> n_x=<..> n_u=<..> n_z=<..>``,
    a header row ``k,u_1..u_{n_u},z_1..z_{n_z}``, then one row per step.
    Values carry full double precision with a locale-independent decimal point.
    An ``n_x`` that is not an integer >= 1, or a dataset without inputs or
    observations, which :func:`load_dataset` would refuse, raises
    :class:`DimensionMismatch` before the file is opened.
    """
    n_u, n_z = dataset.inputs.shape[1], dataset.observations.shape[1]
    for name, value in (("n_x", n_x), ("n_u", n_u), ("n_z", n_z)):
        if not _is_count(value, 1):
            raise DimensionMismatch(f"{name} must be an integer >= 1, got {value!r}")
    with open(path, "w", newline="") as handle:
        handle.write(f"# dt={format_float(dataset.dt)} n_x={n_x} n_u={n_u} n_z={n_z}\n")
        writer = csv.writer(handle)
        writer.writerow(["k"] + [f"u_{i + 1}" for i in range(n_u)]
                        + [f"z_{i + 1}" for i in range(n_z)])
        for k, (u, z) in enumerate(zip(dataset.inputs, dataset.observations)):
            writer.writerow([str(k)] + [format_float(v) for v in (*u, *z)])


def load_dataset(path) -> tuple[Dataset, int]:
    """Read a dataset written by :func:`save_dataset`: the dataset and the
    state dimension its metadata line records.  A file that is not UTF-8, or
    whose metadata gives a count below 1, raises :class:`DimensionMismatch`."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        try:
            lines = iter(handle.readlines())
        except UnicodeDecodeError as exc:
            raise DimensionMismatch(f"{path}: not UTF-8 text ({exc})") from None
    meta_line = next(lines, "").strip()
    if not meta_line.startswith("#"):
        raise DimensionMismatch(f"{path}: missing metadata comment line")
    meta = dict(token.partition("=")[::2] for token in meta_line.lstrip("#").split())
    try:
        dt = float(meta["dt"])
        n_x, n_u, n_z = (int(meta[key]) for key in ("n_x", "n_u", "n_z"))
        if min(n_x, n_u, n_z) < 1:
            raise ValueError("a count below 1")
    except (KeyError, ValueError) as exc:
        raise DimensionMismatch(f"{path}: bad metadata line {meta_line!r}") from exc
    reader = csv.reader(lines)
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
