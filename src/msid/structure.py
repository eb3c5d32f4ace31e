"""Sparsity-aware Jacobian support.

Physical dynamics usually couple each state to only a few others.  A
:class:`SparsityMask` records which entries of the state Jacobian (and of
the input Jacobian) are structurally nonzero, so the backward gradient pass
can evaluate and multiply only those entries.  A module-level counter tracks
how many Jacobian entries were actually evaluated, which makes the work
bound testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, MaskViolation
from .model import numeric_jacobian

if TYPE_CHECKING:
    from .model import DynamicalModel

Array = np.ndarray

STRUCTURAL_ZERO_TOL = 1e-10


class EvalCounter:
    """Counts Jacobian-entry evaluations; reset it before a measurement."""

    def __init__(self):
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


entry_evaluations = EvalCounter()


def _binary_matrix(value, name: str) -> Array:
    arr = np.asarray(value)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise DimensionMismatch(f"{name} entries must be 0 or 1")
    arr = arr.astype(np.int8)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SparsityMask:
    """Structural dependency pattern of the dynamics.

    ``state_mask[j, l]`` is 1 iff state j at the next step depends on state l;
    ``input_mask[j, s]`` is the analogous pattern for inputs.  ``n_nz`` counts
    the ones in the state mask.  The coordinate lists of the nonzero entries
    are precomputed in row-major order.
    """

    state_mask: Array
    input_mask: Array
    rows: Array = field(init=False, repr=False)
    cols: Array = field(init=False, repr=False)

    def __post_init__(self):
        state = _binary_matrix(self.state_mask, "state_mask")
        if state.shape[0] != state.shape[1]:
            raise DimensionMismatch(f"state_mask must be square, got {state.shape}")
        inputs = _binary_matrix(self.input_mask, "input_mask")
        if inputs.shape[0] != state.shape[0]:
            raise DimensionMismatch(
                f"input_mask rows ({inputs.shape[0]}) must match state count ({state.shape[0]})")
        rows, cols = np.nonzero(state)
        rows.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "state_mask", state)
        object.__setattr__(self, "input_mask", inputs)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def n_x(self) -> int:
        return self.state_mask.shape[0]

    @property
    def n_nz(self) -> int:
        return int(self.rows.size)

    def to_json_dict(self) -> dict:
        return {"P": self.state_mask.astype(int).tolist(),
                "Q": self.input_mask.astype(int).tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SparsityMask":
        return cls(np.asarray(data["P"]), np.asarray(data["Q"]))


@dataclass(frozen=True)
class SparseMatrix:
    """Coordinate-list matrix holding only structurally nonzero entries,
    ordered by row.  ``vals`` has shape (..., n_nz): one matrix, or a stack
    of matrices sharing one pattern, one row of ``vals`` per matrix."""

    shape: tuple
    rows: Array
    cols: Array
    vals: Array

    def __getitem__(self, k) -> "SparseMatrix":
        """Matrix ``k`` of a stack."""
        return SparseMatrix(self.shape, self.rows, self.cols, self.vals[k])

    def to_dense(self) -> Array:
        dense = np.zeros(self.vals.shape[:-1] + tuple(self.shape))
        dense[..., self.rows, self.cols] = self.vals
        return dense


def masked_jac_f_x(model: "DynamicalModel", x, u, theta,
                   mask: SparsityMask) -> SparseMatrix:
    """State Jacobian at a point (n_x,) or at each row of a block (..., n_x),
    evaluated only where the mask is 1; ``vals`` has shape (..., n_nz).

    With ``jac_f_x_entry`` each masked entry is computed once for all rows
    and nothing else is evaluated; otherwise one ``jac_f_x_batch`` call on
    the block is gathered at the mask.  Either way the entry counter grows
    by n_nz per row.  :func:`validate_mask` checks a mask against the dense
    Jacobian.
    """
    n_x = model.dims.n_x
    if mask.n_x != n_x:
        raise DimensionMismatch(
            f"mask is {mask.n_x}x{mask.n_x} but the model has n_x={n_x}")
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if x.shape[-1:] != (n_x,):
        raise DimensionMismatch(f"states must have shape (..., {n_x}), got {x.shape}")
    lead = x.shape[:-1]
    if model.jac_f_x_entry is not None:
        vals = np.empty(lead + (mask.n_nz,))
        for idx, (i, j) in enumerate(zip(mask.rows.tolist(), mask.cols.tolist())):
            vals[..., idx] = model.jac_f_x_entry(x, u, theta, i, j)
    else:
        states = x.reshape(-1, n_x)
        dense = model.jac_f_x_batch(states, u.reshape(len(states), -1), theta)
        vals = np.asarray(dense, dtype=float)[:, mask.rows, mask.cols].reshape(lead + (-1,))
    entry_evaluations.add(mask.n_nz * math.prod(lead))
    return SparseMatrix((n_x, n_x), mask.rows, mask.cols, vals)


def _check_structural_zeros(dense: Array, mask: SparsityMask) -> None:
    outside = np.abs(dense) * (1 - mask.state_mask)
    worst = float(np.max(outside)) if outside.size else 0.0
    if worst > STRUCTURAL_ZERO_TOL:
        i, j = np.unravel_index(int(np.argmax(outside)), dense.shape)
        raise MaskViolation(
            f"masked-out entry ({i},{j}) has magnitude {worst:.3e} "
            f"(> {STRUCTURAL_ZERO_TOL:.0e}); the mask is wrong")


def validate_mask(model: "DynamicalModel", mask: SparsityMask, points) -> None:
    """Check the mask against the dense Jacobian at each (x, u, theta) point.

    Raises :class:`MaskViolation` on the first structurally-zero entry whose
    dense value exceeds ``STRUCTURAL_ZERO_TOL``.
    """
    for x, u, theta in points:
        dense = np.asarray(model.jac_f_x(x, u, theta), dtype=float)
        _check_structural_zeros(dense, mask)


def sparse_chain_apply(adjoint_row, jac: SparseMatrix) -> Array:
    """Row-vector times sparse matrix, touching only stored nonzeros."""
    a = np.asarray(adjoint_row, dtype=float)
    if a.ndim != 1 or a.shape[0] != jac.shape[0]:
        raise DimensionMismatch(
            f"adjoint row has shape {a.shape}, expected ({jac.shape[0]},)")
    # bincount adds the products into each column in storage order, from 0.0
    return np.bincount(jac.cols, weights=a[jac.rows] * jac.vals, minlength=jac.shape[1])


def infer_mask(model: "DynamicalModel", probes: int = 20,
               threshold: float = STRUCTURAL_ZERO_TOL, seed: int = 0,
               scale: float = 1.0, sampler=None) -> SparsityMask:
    """Guess the dependency pattern by probing Jacobians at random points.

    An entry is marked nonzero as soon as its magnitude exceeds ``threshold``
    at any probe.  ``sampler(rng) -> (x, u, theta)`` overrides the default
    normal draws, e.g. when the model restricts its parameter domain.  A
    hand-specified mask should always win over an inferred one when they
    disagree.
    """
    dims = model.dims
    rng = np.random.default_rng(seed)
    state = np.zeros((dims.n_x, dims.n_x), dtype=np.int8)
    inputs = np.zeros((dims.n_x, dims.n_u), dtype=np.int8)
    for _ in range(probes):
        if sampler is not None:
            x, u, theta = sampler(rng)
        else:
            x = rng.normal(scale=scale, size=dims.n_x)
            u = rng.normal(scale=scale, size=dims.n_u)
            theta = rng.normal(scale=scale, size=dims.n_theta)
        jac_x = np.asarray(model.jac_f_x(x, u, theta), dtype=float)
        state |= (np.abs(jac_x) > threshold).astype(np.int8)
        jac_u = numeric_jacobian(lambda v: model.f(x, v, theta), u)
        inputs |= (np.abs(jac_u) > threshold).astype(np.int8)
    return SparsityMask(state, inputs)
