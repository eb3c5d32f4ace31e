"""Sparsity masks on the state Jacobian.

Physical dynamics usually couple each state to only a few others.  A
:class:`SparsityMask` records which entries of the state Jacobian are
structurally nonzero; a masked model's state Jacobians keep those entries
and hold exact zeros elsewhere, and run through the same dense backward
pass as any other model.  :func:`validate_mask` checks a mask against the
dense Jacobian.  A module-level counter tracks how many masked entries were
kept, which makes the work bound testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, MaskViolation

if TYPE_CHECKING:
    from .model import DynamicalModel

Array = np.ndarray

STRUCTURAL_ZERO_TOL = 1e-10


class EvalCounter:
    """Counts the masked Jacobian entries kept; reset it before a measurement."""

    def __init__(self):
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


entry_evaluations = EvalCounter()


@dataclass(frozen=True)
class SparsityMask:
    """Structural dependency pattern of the dynamics.

    ``state_mask[j, l]`` is 1 iff state j at the next step depends on state
    l; ``n_nz`` counts its ones.
    """

    state_mask: Array

    def __post_init__(self):
        state = np.asarray(self.state_mask)
        if state.ndim != 2 or state.shape[0] != state.shape[1]:
            raise DimensionMismatch(f"state_mask must be square, got shape {state.shape}")
        if not np.all((state == 0) | (state == 1)):
            raise DimensionMismatch("state_mask entries must be 0 or 1")
        state = state.astype(np.int8)
        state.setflags(write=False)
        object.__setattr__(self, "state_mask", state)

    @property
    def n_x(self) -> int:
        return self.state_mask.shape[0]

    @property
    def n_nz(self) -> int:
        return int(np.count_nonzero(self.state_mask))

    def check_fits(self, n_x: int) -> None:
        if self.n_x != n_x:
            raise DimensionMismatch(f"mask is {self.n_x}x{self.n_x} but the model has n_x={n_x}")


def masked_jac_f_x(jac_x, mask: SparsityMask) -> Array:
    """State Jacobians (..., n_x, n_x), as from
    :meth:`~msid.model.DynamicalModel.transition_jacobians`, with every entry
    outside the mask set to 0.0: selected away rather than multiplied by
    zero, so a non-finite value there never reaches the gradient.  The entry
    counter grows by n_nz per matrix, the masked entries kept.
    """
    mask.check_fits(np.shape(jac_x)[-1])
    entry_evaluations.add(mask.n_nz * math.prod(np.shape(jac_x)[:-2]))
    return np.where(mask.state_mask, jac_x, 0.0)


def validate_mask(model: "DynamicalModel", mask: SparsityMask, points) -> None:
    """Check the mask against the dense state Jacobian at each (x, u, theta)
    point, each one ``model.transition_jacobians`` call on a block of one row.

    Raises :class:`MaskViolation` on the first structurally-zero entry whose
    dense value exceeds ``STRUCTURAL_ZERO_TOL`` in magnitude or is not finite,
    and :class:`DimensionMismatch` if the mask does not fit the model.
    """
    mask.check_fits(model.dims.n_x)
    for x, u, theta in points:
        dense = model.transition_jacobians(
            np.asarray(x, dtype=float)[None], np.asarray(u, dtype=float)[None], theta)[0][0]
        # selected, not multiplied: a non-finite entry inside the mask is no
        # violation, and one outside it (NaN included) is
        outside = np.where(mask.state_mask, 0.0, np.abs(dense))
        worst = float(np.max(outside))
        if not worst <= STRUCTURAL_ZERO_TOL:
            i, j = np.unravel_index(int(np.argmax(outside)), outside.shape)
            raise MaskViolation(
                f"masked-out entry ({i},{j}) has magnitude {worst:.3e} "
                f"(> {STRUCTURAL_ZERO_TOL:.0e}); the mask is wrong")


def sparse_chain_apply(rows, jac, out=None) -> Array:
    """``np.matmul(rows, jac, out=out)`` for rows (n,) or (..., m, n) and a
    Jacobian (n, n) or stack (..., n, n), raising :class:`DimensionMismatch`,
    with the shapes, where ``np.matmul`` would raise ``ValueError``: of the
    rows and the Jacobian if they do not chain, else of ``out``.

    The backward pass of a masked model takes its products from here.  It is
    a plain product since masked Jacobians are dense stacks; the name stays
    while the benchmark in ``perfbench/`` traces it, and goes with
    ``entry_evaluations`` once the benchmark stops wrapping them.
    """
    shape = np.shape(jac)
    if len(shape) >= 2 and shape[-1] == shape[-2]:
        try:
            return np.matmul(rows, jac, out=out)
        except ValueError:
            if out is not None:  # rows that do not chain raise their own message
                expected = sparse_chain_apply(rows, jac).shape
                raise DimensionMismatch(f"out of shape {np.shape(out)} cannot hold the "
                                        f"product, of shape {expected}") from None
    raise DimensionMismatch(
        f"rows of shape {np.shape(rows)} do not chain through a Jacobian of shape "
        f"{shape}; expected rows (..., n) and a square stack (..., n, n) whose "
        f"leading shapes broadcast")
