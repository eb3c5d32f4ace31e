"""Multi-step cost and its exact gradients.

The cost accumulated over a horizon of T steps is

    C = sum_{k=0}^{T-1} (1/T) * e_k' Q e_k  +  penalties,

with e_k the difference between predicted and measured observations.  A
parameter influences C twice over: directly at each step, and through the
error it injects into the state, which every later step inherits.  Both
effects reduce to products of three Jacobian families (state-to-state,
parameter-to-state, state-to-observation), all evaluated along the rolled
out trajectory.

:func:`gradient` evaluates the exact gradient in a single backward pass:
an adjoint row vector starts at the last step and is pulled back one state
transition at a time, O(T) Jacobian-chain applications.  Each transition is
an affine map of the row [adjoint, parameter gradient so far, 1], so the
pass is the product of T step matrices, formed pairwise in about log2(T)
batched numpy calls (a wide or overflowing pass loops step by step
instead), on the Jacobians copied once into C order: the bits do not
depend on their layout.  A masked model's are dense, zero outside the
mask.  :func:`gradient_naive` expands the same quantity as an explicit
double sum over step pairs with O(T^2) matrix chains and exists as a
cross-check and benchmark baseline.  :func:`fd_gradient` differentiates
the cost by central differences (re-rolling the trajectory per
perturbation) and is the independent oracle for both.

One convention worth stating: the backward pass includes the step-0 terms,
i.e. the direct effect of the initial state on the first prediction
g(x[0]) and the parameter-penalty contribution at step 0.  Dropping them
would make the result disagree with finite differences of the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidBox, NonFiniteValue, TrajectoryMismatch
from .model import (Dataset, DynamicalModel, Trajectory, _freeze, _is_count, check_rows,
                    numeric_jacobian, rollout)
from .penalties import PenaltySpec
from .structure import masked_jac_f_x, sparse_chain_apply

Array = np.ndarray

PSD_TOL = 1e-12

# Largest asymmetry of Q, relative to its largest entry, that is taken for
# rounding (say of A @ D @ A.T) and symmetrized away instead of refused.
SYMMETRY_TOL = 1e-12

# The backward pass multiplies affine step matrices pairwise up to this n_x
# + n_theta, and loops above it.  Product/loop time on random chains (fastest
# of 5 rounds, 2-core x86 VM, numpy 2.4): at 16, 0.6-0.85 at T = 50-3200 and
# 0.94-1.04 at T = 10; at 18, 0.9-1.1 at T = 50 and 1.2 at T = 10.
REDUCTION_MAX_SIZE = 16


@dataclass(frozen=True)
class LossSpec:
    """Weighting and horizon of the multi-step cost.

    ``Q`` is a real symmetric positive-semidefinite observation-error
    weight, of which a read-only copy is kept; a ``Q`` asymmetric only by
    rounding (at most ``SYMMETRY_TOL`` relative to its largest entry) is
    replaced by its symmetric part.  ``horizon`` is the number of scored
    steps (>= 2), ``penalty`` None or a :class:`~msid.penalties.PenaltySpec`.
    """

    Q: Array
    horizon: int
    penalty: Optional[PenaltySpec] = None

    def __post_init__(self):
        if np.asarray(self.Q).dtype.kind not in "biuf":
            raise DimensionMismatch(f"Q must be a real matrix, got {self.Q!r}")
        q = np.array(self.Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or not q.size:
            raise DimensionMismatch(f"Q must be square and non-empty, got shape {q.shape}")
        if not np.isfinite(q).all():
            raise DimensionMismatch("Q must be finite")
        if not np.array_equal(q, q.T):
            asymmetry = float(np.max(np.abs(q - q.T)))
            if not asymmetry <= SYMMETRY_TOL * float(np.max(np.abs(q))):
                raise DimensionMismatch(
                    f"Q must be symmetric, largest asymmetry is {asymmetry:.3e}")
            q = (q + q.T) / 2.0
        if float(np.min(np.linalg.eigvalsh(q))) < -PSD_TOL:
            raise DimensionMismatch("Q must be positive semidefinite")
        if not _is_count(self.horizon, 2):
            raise DimensionMismatch(f"horizon must be an integer >= 2, got {self.horizon!r}")
        if not (self.penalty is None or isinstance(self.penalty, PenaltySpec)):
            raise InvalidBox(f"penalty must be a PenaltySpec or None, got {self.penalty!r}")
        object.__setattr__(self, "Q", _freeze(q))

    @classmethod
    def scaled_identity(cls, n_z: int, horizon: int, scale: float = 1.0,
                        penalty: Optional[PenaltySpec] = None) -> "LossSpec":
        if not _is_count(n_z, 0):
            raise DimensionMismatch(f"n_z must be an integer >= 0, got {n_z!r}")
        return cls(scale * np.eye(n_z), horizon, penalty)


@dataclass(frozen=True)
class GradientReport:
    """Cost, gradients, and per-step diagnostics for one candidate.

    ``penalty_total`` is the weighted penalty contribution, so
    ``cost == per_step_loss.sum() + penalty_total``.  ``chain_applications``
    counts the Jacobian-chain products the adjoint pass formed: T-1, twice
    that where the loop takes over from an overflowing product; 0 otherwise.
    """

    cost: float
    grad_theta: Array
    grad_x0: Array
    per_step_loss: Array
    penalty_total: float
    chain_applications: int = 0

    def to_json_dict(self) -> dict:
        return {
            "cost": float(self.cost),
            "grad_theta": [float(v) for v in self.grad_theta],
            "grad_x0": [float(v) for v in self.grad_x0],
            "penalty_total": float(self.penalty_total),
        }


def prediction_error(trajectory: Trajectory, dataset: Dataset) -> Array:
    """Per-step difference between predictions and measurements, shape (T, n_z)."""
    predictions = trajectory.predictions
    observations = dataset.observations
    if predictions.shape != observations.shape:
        raise DimensionMismatch(
            f"predictions {predictions.shape} and observations "
            f"{observations.shape} must have equal shapes")
    return predictions - observations


def _cost_parts(trajectory, dataset, spec, theta):
    """Per-step losses, penalty total and the weighted errors ``e_k' Q``; every
    cost and gradient passes here, so it checks the sizes of Q and of the bounds."""
    horizon = trajectory.horizon
    if len(dataset) != horizon:
        raise DimensionMismatch(
            f"trajectory horizon {horizon} does not match dataset length {len(dataset)}")
    if spec.horizon != horizon:
        raise DimensionMismatch(
            f"loss horizon {spec.horizon} does not match trajectory horizon {horizon}")
    errors = prediction_error(trajectory, dataset)
    n_z = errors.shape[1]
    if spec.Q.shape != (n_z, n_z):
        raise DimensionMismatch(f"Q must have shape ({n_z}, {n_z}), got {spec.Q.shape}")
    weighted = errors @ spec.Q
    per_step = np.einsum("ti,ti->t", weighted, errors) / horizon
    penalty_total = 0.0
    if spec.penalty is not None:
        states = trajectory.states[:horizon]
        spec.penalty.check_sizes(states.shape[1], np.size(theta))
        penalty_total = spec.penalty.total_value(states, theta)
    return per_step, penalty_total, weighted


def cost(trajectory: Trajectory, dataset: Dataset, spec: LossSpec, theta) -> float:
    """Multi-step cost of one candidate, penalties included."""
    per_step, penalty_total, _ = _cost_parts(trajectory, dataset, spec, theta)
    total = float(per_step.sum() + penalty_total)
    if not math.isfinite(total):
        raise NonFiniteValue("cost is not finite")
    return total


def gamma_terms(trajectory: Trajectory, weighted, spec: LossSpec,
                theta, model: DynamicalModel) -> tuple[Array, Array]:
    """Per-step gradient seeds of the (penalty-augmented) local loss.

    ``weighted`` is ``prediction_error(trajectory, dataset) @ spec.Q``, as
    the cost forms it.  Returns ``(gamma, big_gamma)`` with shapes
    (T, n_theta) and (T, n_x): ``gamma[k]`` is the direct parameter gradient
    of the loss at step k (zero unless a state penalty depends on the
    parameters), ``big_gamma[k]`` the loss gradient pulled back through the
    observation map into state space, ``(2/T) e_k' Q Jg(x_k)`` plus the
    weighted state-penalty gradient.
    """
    horizon = trajectory.horizon
    theta = np.asarray(theta, dtype=float)
    states = trajectory.states[:horizon]
    weighted = (2.0 / horizon) * check_rows("weighted", weighted, (horizon, model.dims.n_z))
    big_gamma = np.einsum("ti,tij->tj", weighted, model.observation_jacobians(states))
    if spec.penalty is None:
        gamma = np.zeros((horizon, theta.shape[0]))
    else:
        big_gamma += spec.penalty.step_grad_x(states, theta)
        gamma = spec.penalty.step_grad_theta(states, theta)
    if not (np.isfinite(big_gamma).all() and np.isfinite(gamma).all()):
        raise NonFiniteValue("gradient seeds are not finite")
    return gamma, big_gamma


def _spot_check_trajectory(model, trajectory, dataset, theta):
    # nested lists of floats are equal where np.array_equal holds, at less cost
    theta = np.asarray(theta, dtype=float)
    if trajectory.parameters.tolist() != theta.tolist():
        raise TrajectoryMismatch("trajectory was generated with different parameters")
    states, horizon = trajectory.states, trajectory.horizon
    for k in sorted({0, horizon // 2, horizon - 1}):
        expected = np.asarray(model.f(states[k], dataset.inputs[k], theta), dtype=float)
        if expected.tolist() != states[k + 1].tolist():
            raise TrajectoryMismatch(
                f"stored state at step {k + 1} does not reproduce under f")


def _transition_jacobians(model, trajectory, dataset, theta):
    """State and parameter Jacobians of each transition along the trajectory.

    Index i holds the Jacobians of the map producing state i+1, i.e. the
    derivatives of f at (states[i], inputs[i], theta), for i = 0..T-2.  The
    transition into the final state is never needed because no loss is
    evaluated there.
    """
    steps = trajectory.horizon - 1
    jac_x, jac_theta = model.transition_jacobians(trajectory.states[:steps],
                                                  dataset.inputs[:steps], theta)
    if model.sparsity is not None:
        jac_x = masked_jac_f_x(jac_x, model.sparsity)
    return jac_x, jac_theta


def _reduced_row(big_gamma, jac_x, jac_theta, product):
    """The last row ``[a[0], sum_k a[k+1] @ jac_theta[k], 1]`` of ``A[T-1] @
    ... @ A[0]``, ``A[k] = [[jac_x[k], jac_theta[k], 0], [0, I, 0],
    [big_gamma[k], 0, 1]]`` (zero Jacobians at k = T-1), and the number of
    products formed.  The stack is multiplied down pairwise (Blelloch 1990),
    later steps on the left: one ``product`` per level, after folding an odd
    level's last matrix into its neighbour, into the stack and an unzeroed
    half-size spare in turn (each level writes what the next reads).  One
    allocation holds both: with two, the heap shrank and refaulted after
    every call (577 against 0 minor faults per call, T=3200).
    """
    horizon, n_x = big_gamma.shape
    size = n_x + jac_theta.shape[2] + 1
    buffer = np.empty((horizon + horizon // 2, size, size))
    steps, spare = buffer[:horizon], buffer[horizon:]
    steps[...] = 0.0
    steps[:-1, :n_x, :n_x] = jac_x
    steps[:-1, :n_x, n_x:-1] = jac_theta
    steps.reshape(horizon, -1)[:, n_x * (size + 1)::size + 1] = 1.0
    steps[:, -1, :n_x] = big_gamma
    count, products = horizon, 0
    while count > 1:
        if count % 2:
            count -= 1
            product(steps[count], steps[count - 1], out=steps[count - 1])
            products += 1
        count //= 2
        product(steps[1:2 * count:2], steps[:2 * count:2], out=spare[:count])
        products += count
        steps, spare = spare, steps
    return steps[0, -1], products


def _backward_adjoints(big_gamma, jac_x):
    """Adjoints ``a[k] = big_gamma[k] + a[k+1] @ jac_x[k]``, ``a[T-1] =
    big_gamma[T-1]`` (the cost gradient by x[k]), one step at a time over row
    views made once, each ``row.dot(jac)`` on one C-ordered copy of ``jac_x``
    (free if in C order): ``row @ jac`` without its gufunc dispatch."""
    adjoints = big_gamma.copy()
    rows, jacs = list(adjoints), list(np.ascontiguousarray(jac_x))
    for k in range(len(rows) - 1, 0, -1):
        rows[k - 1] += rows[k].dot(jacs[k - 1])
    return adjoints


def _analytic_parts(model, trajectory, dataset, spec, theta):
    """What both analytic gradients start from: the spot-checked trajectory's
    cost parts, the direct parameter gradient (``gamma`` summed along the
    contiguous rows of ``gamma.T``: at T=3200, 7 µs against 48 µs for
    ``gamma.sum(0)``, which adds one n_theta-wide row at a time)
    plus the parameter-penalty gradient, the state seeds ``big_gamma``, and
    the transition Jacobians."""
    theta = np.asarray(theta, dtype=float)
    _spot_check_trajectory(model, trajectory, dataset, theta)
    per_step, penalty_total, weighted = _cost_parts(trajectory, dataset, spec, theta)
    gamma, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
    jac_x, jac_theta = _transition_jacobians(model, trajectory, dataset, theta)
    grad_theta = np.ascontiguousarray(gamma.T).sum(axis=1)
    if spec.penalty is not None:
        grad_theta = grad_theta + spec.penalty.param_grad(theta)
    return per_step, penalty_total, grad_theta, big_gamma, jac_x, jac_theta


def _report(per_step, penalty_total, grad_theta, grad_x0,
            chain_applications=0) -> GradientReport:
    """The report of one gradient evaluation; raises :class:`NonFiniteValue`
    unless the cost and both gradients are finite."""
    total_cost = float(per_step.sum() + penalty_total)
    # math.isfinite on a few Python floats costs less than np.isfinite(...).all()
    if not all(map(math.isfinite, [total_cost] + grad_theta.tolist() + grad_x0.tolist())):
        raise NonFiniteValue("gradient evaluation produced non-finite values")
    return GradientReport(
        cost=total_cost, grad_theta=grad_theta, grad_x0=grad_x0,
        per_step_loss=per_step, penalty_total=penalty_total,
        chain_applications=chain_applications)


def gradient(model: DynamicalModel, trajectory: Trajectory, dataset: Dataset,
             spec: LossSpec, theta) -> GradientReport:
    """Exact cost gradient via one backward adjoint pass, O(T) chain products.

    Up to REDUCTION_MAX_SIZE states and parameters together, the pass is
    the pairwise product of the affine step matrices (:func:`_reduced_row`);
    wider, or where that product overflows, it is the step-by-step loop
    (:func:`_backward_adjoints`); both copy the Jacobians into C order.  A
    masked model's pairwise products are the benchmark-traced ``np.matmul``
    of :func:`~msid.structure.sparse_chain_apply`.

    The trajectory must have been produced by :func:`~msid.model.rollout`
    under ``theta`` from its first stored state; a spot check re-evaluates
    the dynamics at the first, middle and last step and raises
    :class:`TrajectoryMismatch` if the stored states do not reproduce.
    """
    per_step, penalty_total, grad_theta, big_gamma, jac_x, jac_theta = _analytic_parts(
        model, trajectory, dataset, spec, theta)
    product = np.matmul if model.sparsity is None else sparse_chain_apply
    n_x, products = big_gamma.shape[1], 0
    # an overflowing product falls back to the loop; _report refuses the rest
    with np.errstate(over="ignore", invalid="ignore"):
        if n_x + grad_theta.size <= REDUCTION_MAX_SIZE:
            row, products = _reduced_row(big_gamma, jac_x, jac_theta, product)
            if all(map(math.isfinite, row.tolist())):
                return _report(per_step, penalty_total, grad_theta + row[n_x:-1],
                               row[:n_x].copy(), products)
        adjoints = _backward_adjoints(big_gamma, jac_x)
        # the transition terms, summed in backward-pass order (not pairwise)
        terms = np.matmul(adjoints[1:, None, :], np.ascontiguousarray(jac_theta))[::-1, 0]
        grad_theta = np.concatenate([grad_theta[None], terms]).cumsum(axis=0)[-1]
    return _report(per_step, penalty_total, grad_theta, adjoints[0],
                   products + len(big_gamma) - 1)


def gradient_naive(model: DynamicalModel, trajectory: Trajectory, dataset: Dataset,
                   spec: LossSpec, theta) -> GradientReport:
    """Same contract as :func:`gradient`, computed as the explicit double sum.

    For every step pair (k, tau) with tau > k the full matrix chain
    Jx[tau]...Jx[k+1] is formed, so the cost is O(T^2) matrix products.
    Kept as a cross-check and benchmark baseline only.
    """
    per_step, penalty_total, grad_theta, big_gamma, jac_x, jac_theta = _analytic_parts(
        model, trajectory, dataset, spec, theta)
    horizon, n_x = big_gamma.shape
    for k in range(1, horizon):
        grad_theta = grad_theta + big_gamma[k] @ jac_theta[k - 1]
        chain = np.eye(n_x)
        for tau in range(k + 1, horizon):
            chain = jac_x[tau - 1] @ chain
            grad_theta = grad_theta + (big_gamma[tau] @ chain) @ jac_theta[k - 1]

    grad_x0 = big_gamma[0].copy()
    chain = np.eye(n_x)
    for k in range(1, horizon):
        chain = jac_x[k - 1] @ chain
        grad_x0 = grad_x0 + big_gamma[k] @ chain
    return _report(per_step, penalty_total, grad_theta, grad_x0)


def fd_gradient(model: DynamicalModel, x0, theta, dataset: Dataset,
                spec: LossSpec, step: float = 1e-6) -> GradientReport:
    """Central finite differences of the cost, re-rolling per perturbation.

    Independent of the analytic path; serves as its oracle and as the
    numerically-approximated gradient in optimizer comparisons.  The
    parameters and the initial state are differenced together by one
    :func:`~msid.model.numeric_jacobian` call, whose step for each component
    scales with max(1, |value|); it hands over all perturbed (theta, x0)
    points stacked, and each row is rolled out and costed on its own.
    """
    x0 = np.asarray(x0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n_theta = theta.size

    def evaluate(points):
        # one rollout per perturbed point: the stack is mapped row by row
        return np.array([cost(rollout(model, p[n_theta:], p[:n_theta], dataset.inputs),
                              dataset, spec, p[:n_theta]) for p in points])

    center = rollout(model, x0, theta, dataset.inputs)
    per_step, penalty_total, _ = _cost_parts(center, dataset, spec, theta)
    grad = numeric_jacobian(evaluate, np.concatenate([theta, x0]), step)
    return _report(per_step, penalty_total, grad[:n_theta], grad[n_theta:])
