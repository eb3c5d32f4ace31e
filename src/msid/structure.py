"""Sparsity-aware Jacobian support.

Physical dynamics usually couple each state to only a few others.  A
:class:`SparsityMask` records which entries of the state Jacobian (and of
the input Jacobian) are structurally nonzero, so the backward gradient pass
keeps and multiplies only those entries.  A module-level counter tracks how
many masked entries were gathered, which makes the work bound testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, MaskViolation

if TYPE_CHECKING:
    from .model import DynamicalModel

Array = np.ndarray

STRUCTURAL_ZERO_TOL = 1e-10


class EvalCounter:
    """Counts the masked Jacobian entries gathered; reset it before a measurement."""

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
    kept only where the mask is 1; ``vals`` has shape (..., n_nz).

    One ``jac_f_x_batch`` call on the block, gathered at the mask; the entry
    counter grows by n_nz per row, the masked entries gathered.
    :func:`validate_mask` checks a mask against the dense Jacobian.
    """
    n_x = model.dims.n_x
    if mask.n_x != n_x:
        raise DimensionMismatch(
            f"mask is {mask.n_x}x{mask.n_x} but the model has n_x={n_x}")
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if x.shape[-1:] != (n_x,):
        raise DimensionMismatch(f"states must have shape (..., {n_x}), got {x.shape}")
    lead = x.shape[:-1]
    if u.shape != lead + (model.dims.n_u,):
        raise DimensionMismatch(
            f"inputs must have shape {lead + (model.dims.n_u,)} to match states "
            f"{x.shape}, got {u.shape}")
    dense = model.jac_f_x_batch(x.reshape(-1, n_x), u.reshape(-1, model.dims.n_u), theta)
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


def sparse_chain_apply(rows, jac: SparseMatrix) -> Array:
    """``rows @ jac.to_dense()`` touching only the stored nonzeros, O(n_nz)
    work per row.

    ``rows`` is a row (n,) or blocks of rows (..., m, n), and ``jac`` one
    matrix or a stack (``vals`` of shape (..., n_nz)); the leading shapes
    broadcast and the result is shaped as by ``np.matmul``.  Each column
    adds its products in storage order, from 0.0, as ``np.add.at`` does, so
    a row's result does not depend on the block it comes in.
    """
    a = np.asarray(rows, dtype=float)
    n_rows, n_cols = jac.shape
    if a.ndim == 0 or a.shape[-1] != n_rows:
        raise DimensionMismatch(f"rows have shape {a.shape}, expected (..., {n_rows})")
    vals = np.asarray(jac.vals, dtype=float)
    # one bincount over every row at once, each row's columns offset into
    # bins of their own
    block = a[None] if a.ndim == 1 else a
    products = block.take(jac.rows, axis=-1) * vals[..., None, :]
    lead = products.shape[:-1]
    count = math.prod(lead)
    bins = np.add.outer(np.arange(0, count * n_cols, n_cols), jac.cols)
    out = np.bincount(bins.ravel(), weights=products.ravel(), minlength=count * n_cols)
    out = out.reshape(lead + (n_cols,))
    return out[..., 0, :] if a.ndim == 1 else out
