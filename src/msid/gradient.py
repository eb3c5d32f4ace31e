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
transition at a time, so the whole computation costs O(T) Jacobian-chain
applications.  Above SCAN_MIN_HORIZON steps, with at most SCAN_MAX_STATES
states, the same recurrence runs as a chunked two-level scan: O(T n_x^3)
work in about 3 sqrt(T) numpy steps instead of O(T n_x^2) work in T Python
steps, equal up to rounding.  A masked model takes the same loop or scan on
its masked Jacobians, which are dense stacks with exact zeros outside the
mask.  :func:`gradient_naive`
expands the same quantity as an explicit double sum over step pairs with
O(T^2) matrix chains and exists as a cross-check and benchmark baseline.
:func:`fd_gradient` differentiates the cost by central differences
(re-rolling the trajectory per perturbation) and is the independent oracle
for both.

One convention worth stating: the backward pass includes the step-0 terms,
i.e. the direct effect of the initial state on the first prediction
g(x[0]) and the parameter-penalty contribution at step 0.  Dropping them
would make the result disagree with finite differences of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, TrajectoryMismatch
from .model import Dataset, DynamicalModel, Trajectory, check_rows, numeric_jacobian, rollout
from .penalties import PenaltySpec
from .structure import masked_jac_f_x, sparse_chain_apply

Array = np.ndarray

PSD_TOL = 1e-12

# Largest asymmetry of Q, relative to its largest entry, that is taken for
# rounding (say of A @ D @ A.T) and symmetrized away instead of refused.
SYMMETRY_TOL = 1e-12

# The backward pass runs as a chunked scan above this horizon and up to this
# many states; at shorter horizons or more states the loop is faster.
SCAN_MIN_HORIZON = 64
SCAN_MAX_STATES = 10


@dataclass(frozen=True)
class LossSpec:
    """Weighting and horizon of the multi-step cost.

    ``Q`` is a symmetric positive-semidefinite observation-error weight; a
    ``Q`` asymmetric only by rounding (at most ``SYMMETRY_TOL`` relative to
    its largest entry) is replaced by its symmetric part.  ``horizon`` is
    the number of scored steps (>= 2), ``penalty`` an optional
    :class:`~msid.penalties.PenaltySpec`.
    """

    Q: Array
    horizon: int
    penalty: Optional[PenaltySpec] = None

    def __post_init__(self):
        q = np.asarray(self.Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch(f"Q must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise DimensionMismatch("Q must be finite")
        if not np.array_equal(q, q.T):
            asymmetry = float(np.max(np.abs(q - q.T)))
            if not asymmetry <= SYMMETRY_TOL * float(np.max(np.abs(q))):
                raise DimensionMismatch(
                    f"Q must be symmetric, largest asymmetry is {asymmetry:.3e}")
            q = (q + q.T) / 2.0
        if float(np.min(np.linalg.eigvalsh(q))) < -PSD_TOL:
            raise DimensionMismatch("Q must be positive semidefinite")
        if not isinstance(self.horizon, (int, np.integer)) or self.horizon < 2:
            raise DimensionMismatch(f"horizon must be an integer >= 2, got {self.horizon!r}")
        q.setflags(write=False)
        object.__setattr__(self, "Q", q)

    @classmethod
    def scaled_identity(cls, n_z: int, horizon: int, scale: float = 1.0,
                        penalty: Optional[PenaltySpec] = None) -> "LossSpec":
        return cls(scale * np.eye(n_z), horizon, penalty)


@dataclass(frozen=True)
class GradientReport:
    """Cost, gradients, and per-step diagnostics for one candidate.

    ``penalty_total`` is the weighted penalty contribution, so
    ``cost == per_step_loss.sum() + penalty_total``.  ``chain_applications``
    counts backward Jacobian-chain products (T-1 for the adjoint pass, 0 for
    the finite-difference path).
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


def _check_pair(trajectory: Trajectory, dataset: Dataset, spec: LossSpec) -> int:
    horizon = trajectory.horizon
    if len(dataset) != horizon:
        raise DimensionMismatch(
            f"trajectory horizon {horizon} does not match dataset length {len(dataset)}")
    if spec.horizon != horizon:
        raise DimensionMismatch(
            f"loss horizon {spec.horizon} does not match trajectory horizon {horizon}")
    return horizon


def _cost_parts(trajectory, dataset, spec, theta):
    horizon = _check_pair(trajectory, dataset, spec)
    errors = prediction_error(trajectory, dataset)
    weighted = errors @ spec.Q
    per_step = np.einsum("ti,ti->t", weighted, errors) / horizon
    penalty_total = 0.0
    if spec.penalty is not None:
        penalty_total = spec.penalty.total_value(trajectory.states[:horizon], theta)
    return per_step, penalty_total


def cost(trajectory: Trajectory, dataset: Dataset, spec: LossSpec, theta) -> float:
    """Multi-step cost of one candidate, penalties included."""
    per_step, penalty_total = _cost_parts(trajectory, dataset, spec, theta)
    total = float(per_step.sum() + penalty_total)
    if not np.isfinite(total):
        raise NonFiniteValue("cost is not finite")
    return total


def gamma_terms(trajectory: Trajectory, dataset: Dataset, spec: LossSpec,
                theta, model: DynamicalModel) -> tuple[Array, Array]:
    """Per-step gradient seeds of the (penalty-augmented) local loss.

    Returns ``(gamma, big_gamma)`` with shapes (T, n_theta) and (T, n_x):
    ``gamma[k]`` is the direct parameter gradient of the loss at step k
    (zero unless a state penalty depends on the parameters), ``big_gamma[k]``
    the loss gradient pulled back through the observation map into state
    space, ``(2/T) e_k' Q Jg(x_k)`` plus the weighted state-penalty gradient.
    """
    horizon = _check_pair(trajectory, dataset, spec)
    theta = np.asarray(theta, dtype=float)
    states = trajectory.states[:horizon]
    weighted = (2.0 / horizon) * (prediction_error(trajectory, dataset) @ spec.Q)
    jac_g = check_rows("jac_g_x_batch", model.jac_g_x_batch(states),
                       (horizon, model.dims.n_z, model.dims.n_x))
    big_gamma = np.einsum("ti,tij->tj", weighted, jac_g)
    if spec.penalty is None:
        gamma = np.zeros((horizon, theta.shape[0]))
    else:
        big_gamma += spec.penalty.step_grad_x(states, theta)
        gamma = spec.penalty.step_grad_theta(states, theta)
    if not (np.all(np.isfinite(big_gamma)) and np.all(np.isfinite(gamma))):
        raise NonFiniteValue("gradient seeds are not finite")
    return gamma, big_gamma


def _spot_check_trajectory(model, trajectory, dataset, theta):
    theta = np.asarray(theta, dtype=float)
    if not np.array_equal(trajectory.parameters, theta):
        raise TrajectoryMismatch("trajectory was generated with different parameters")
    if not np.array_equal(trajectory.states[0], trajectory.initial_state):
        raise TrajectoryMismatch("trajectory initial state is inconsistent")
    horizon = trajectory.horizon
    for k in sorted({0, horizon // 2, horizon - 1}):
        expected = np.asarray(
            model.f(trajectory.states[k], dataset.inputs[k], theta), dtype=float)
        if not np.array_equal(expected, trajectory.states[k + 1]):
            raise TrajectoryMismatch(
                f"stored state at step {k + 1} does not reproduce under f")


def _transition_jacobians(model, trajectory, dataset, theta):
    """State and parameter Jacobians of each transition along the trajectory.

    Index i holds the Jacobians of the map producing state i+1, i.e. the
    derivatives of f at (states[i], inputs[i], theta), for i = 0..T-2.  The
    transition into the final state is never needed because no loss is
    evaluated there.
    """
    dims, steps = model.dims, trajectory.horizon - 1
    states, inputs = trajectory.states[:steps], dataset.inputs[:steps]
    if model.sparsity is not None:
        jac_x = masked_jac_f_x(model, states, inputs, theta, model.sparsity)
    else:
        jac_x = check_rows("jac_f_x_batch", model.jac_f_x_batch(states, inputs, theta),
                           (steps, dims.n_x, dims.n_x))
    jac_theta = check_rows("jac_f_theta_batch", model.jac_f_theta_batch(states, inputs, theta),
                           (steps, dims.n_x, dims.n_theta))
    return jac_x, jac_theta


def _backward_adjoints(big_gamma, jac_x, product):
    """Adjoints ``a[k] = big_gamma[k] + a[k+1] @ jac_x[k]``, ``a[T-1] =
    big_gamma[T-1]``: row k is the cost gradient by x[k].

    ``jac_x`` is the (T-1, n_x, n_x) stack, masked or not, and ``product``
    forms each ``rows @ jac`` by it (``np.matmul`` contract).  The scan
    (T > SCAN_MIN_HORIZON, n_x <= SCAN_MAX_STATES) takes chunks of
    B ~ sqrt(T)/2 steps.  B batched steps solve every chunk from a zero
    incoming adjoint and form each position's transfer product to the
    chunk's end, one step per chunk carries the true incoming adjoints back,
    and one batched product adds them in.  A transfer product that
    overflows falls back to the step-by-step loop (:func:`gradient` runs
    this under ``np.errstate``, so an overflow warns nothing).
    """
    horizon, n_x = big_gamma.shape
    if horizon > SCAN_MIN_HORIZON and n_x <= SCAN_MAX_STATES:
        size = max(6, round(horizon ** 0.5 / 2))
        chunks, pad = -(-horizon // size), -horizon % size
        # zero seeds and Jacobians pad the horizon to whole chunks
        local = np.concatenate([big_gamma, np.zeros((pad, n_x))])
        jac = np.concatenate([jac_x, np.zeros((pad + 1, n_x, n_x))])
        local = local.reshape(chunks, size, n_x)
        jac = jac.reshape(chunks, size, n_x, n_x)
        transfer = np.empty((chunks, size, n_x, n_x))
        row, chain = np.zeros((chunks, 1, n_x)), np.eye(n_x)
        for j in range(size - 1, -1, -1):
            row = local[:, j, None] + product(row, jac[:, j])
            local[:, j] = row[:, 0]
            chain = transfer[:, j] = product(chain, jac[:, j])
        if np.all(np.isfinite(transfer)):
            incoming = np.zeros((chunks, n_x))
            for c in range(chunks - 2, -1, -1):
                incoming[c] = local[c + 1, 0] + incoming[c + 1] @ transfer[c + 1, 0]
            local += (incoming[:, None, None, :] @ transfer)[..., 0, :]
            return local.reshape(-1, n_x)[:horizon]
    adjoints = big_gamma.copy()
    for k in range(horizon - 1, 0, -1):
        adjoints[k - 1] += product(adjoints[k], jac_x[k - 1])
    return adjoints


def _analytic_parts(model, trajectory, dataset, spec, theta):
    """What both analytic gradients start from: the spot-checked trajectory's
    cost parts, the direct parameter gradient ``gamma.sum(0)`` plus the
    parameter-penalty gradient, the state seeds ``big_gamma``, and the
    transition Jacobians."""
    theta = np.asarray(theta, dtype=float)
    _spot_check_trajectory(model, trajectory, dataset, theta)
    per_step, penalty_total = _cost_parts(trajectory, dataset, spec, theta)
    gamma, big_gamma = gamma_terms(trajectory, dataset, spec, theta, model)
    jac_x, jac_theta = _transition_jacobians(model, trajectory, dataset, theta)
    grad_theta = gamma.sum(axis=0)
    if spec.penalty is not None:
        grad_theta = grad_theta + spec.penalty.param_grad(theta)
    return per_step, penalty_total, grad_theta, big_gamma, jac_x, jac_theta


def _report(per_step, penalty_total, grad_theta, grad_x0,
            chain_applications=0) -> GradientReport:
    """The report of one gradient evaluation; raises :class:`NonFiniteValue`
    unless the cost and both gradients are finite."""
    total_cost = float(per_step.sum() + penalty_total)
    if not (np.isfinite(total_cost)
            and np.all(np.isfinite(grad_theta)) and np.all(np.isfinite(grad_x0))):
        raise NonFiniteValue("gradient evaluation produced non-finite values")
    return GradientReport(
        cost=total_cost, grad_theta=grad_theta, grad_x0=grad_x0,
        per_step_loss=per_step, penalty_total=penalty_total,
        chain_applications=chain_applications)


def gradient(model: DynamicalModel, trajectory: Trajectory, dataset: Dataset,
             spec: LossSpec, theta) -> GradientReport:
    """Exact cost gradient via one backward adjoint pass, O(T) chain products.

    Above SCAN_MIN_HORIZON steps, with at most SCAN_MAX_STATES states, the
    pass runs as a chunked scan of O(T n_x^3) work (:func:`_backward_adjoints`),
    on a masked model as on a dense one; ``chain_applications`` is T-1 either
    way.  A masked model's products go through
    :func:`~msid.structure.sparse_chain_apply`, ``np.matmul`` under the name
    the benchmark traces.

    The trajectory must have been produced by :func:`~msid.model.rollout`
    under ``theta`` and its stored initial state; a spot check re-evaluates
    the dynamics at the first, middle and last step and raises
    :class:`TrajectoryMismatch` if the stored states do not reproduce.
    """
    per_step, penalty_total, grad_theta, big_gamma, jac_x, jac_theta = _analytic_parts(
        model, trajectory, dataset, spec, theta)
    product = np.matmul if model.sparsity is None else sparse_chain_apply
    # the products may overflow; the report's finiteness check reports that
    with np.errstate(over="ignore", invalid="ignore"):
        adjoints = _backward_adjoints(big_gamma, jac_x, product)
        # the transition terms, summed in backward-pass order (not pairwise)
        products = np.matmul(adjoints[1:, None, :], jac_theta)[::-1, 0]
        grad_theta = np.cumsum(np.concatenate([grad_theta[None], products]), axis=0)[-1]
    return _report(per_step, penalty_total, grad_theta, adjoints[0], trajectory.horizon - 1)


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
    parameters and the initial state are differenced together by
    :func:`~msid.model.numeric_jacobian`, whose step for each component
    scales with max(1, |value|).
    """
    x0 = np.asarray(x0, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n_theta = theta.size

    def evaluate(point):
        th, x = point[:n_theta], point[n_theta:]
        return cost(rollout(model, x, th, dataset.inputs), dataset, spec, th)

    center = rollout(model, x0, theta, dataset.inputs)
    per_step, penalty_total = _cost_parts(center, dataset, spec, theta)
    grad = numeric_jacobian(evaluate, np.concatenate([theta, x0]), step)
    return _report(per_step, penalty_total, grad[:n_theta], grad[n_theta:])
