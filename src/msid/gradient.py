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
applications.  The loop steps through row views made once, forming each
dense step as one ``ndarray.dot`` of a row by a Jacobian, bit for bit the
``np.matmul`` product.  Above SCAN_MIN_HORIZON steps, with at most
SCAN_MAX_STATES states, the same recurrence runs as a chunked two-level
scan: O(T n_x^3) work in sqrt(T)/2 numpy steps plus the same recurrence over
the 2 sqrt(T) chunks, instead of O(T n_x^2) work in T Python steps, equal up
to rounding.
A masked model takes the same loop or scan on its masked Jacobians, which
are dense stacks with exact zeros outside the mask.  :func:`gradient_naive`
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

import math
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
# many states, and as the step-by-step loop otherwise.  On a random 3-state
# chain the row-view loop and the scan break even at T = 55 (54-56 us against
# 56-59 at T = 50, 68-71 against 60-63 at T = 64; fastest of 150 calls, three
# sweeps, 2-core x86 VM, Python 3.11, numpy 2.4).  Lowering the threshold
# would move the rounding of T = 55..64 to save a few us, so it stays 64.
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


def _backward_adjoints(big_gamma, jac_x, product):
    """Adjoints ``a[k] = big_gamma[k] + a[k+1] @ jac_x[k]``, ``a[T-1] =
    big_gamma[T-1]``: row k is the cost gradient by x[k].

    ``jac_x`` is the (T-1, n_x, n_x) stack, masked or not, and ``product``
    forms each ``rows @ jac`` by it (``np.matmul`` contract).  The loop
    steps through row views of the adjoints and of ``jac_x``, made once.  It
    forms a dense product of a row by a C- or F-ordered matrix with
    ``ndarray.dot``, which gives the bits of ``np.matmul`` without its
    gufunc dispatch; other strides keep ``np.matmul``, and a masked model
    makes one ``product`` call per step.  The scan (T > SCAN_MIN_HORIZON,
    n_x <= SCAN_MAX_STATES; a two-level prefix scan, Blelloch 1990) takes
    chunks of B ~ sqrt(T)/2 steps.  B ``product`` steps pull an
    (n_x+1, n_x) block per chunk back: the transfer products to the chunk's
    end over the adjoints from a zero incoming adjoint.  The chunk heads
    follow this recurrence too, solved by a recursive call on ``np.matmul``
    (transfer products are dense); one batched product adds them in.  A
    level whose transfer products overflow falls back to the loop
    (:func:`gradient` runs this under ``np.errstate``: it warns nothing).
    """
    horizon, n_x = big_gamma.shape
    if horizon > SCAN_MIN_HORIZON and n_x <= SCAN_MAX_STATES:
        size = max(6, round(horizon ** 0.5 / 2))
        chunks, pad = -(-horizon // size), -horizon % size
        # zero seeds and Jacobians pad the horizon to whole chunks
        local = np.concatenate([big_gamma, np.zeros((pad, n_x))]).reshape(chunks, size, n_x)
        jac = np.concatenate([jac_x, np.zeros((pad + 1, n_x, n_x))])
        jac = jac.reshape(chunks, size, n_x, n_x)
        transfer = np.empty((chunks, size, n_x, n_x))
        block = np.eye(n_x + 1, n_x)  # the identity over a zero adjoint row
        for j in range(size - 1, -1, -1):
            block = product(block, jac[:, j])
            block[:, n_x] += local[:, j]
            local[:, j] = block[:, n_x]
            transfer[:, j] = block[:, :n_x]
        if np.all(np.isfinite(transfer)):
            heads = _backward_adjoints(local[:, 0], transfer[:-1, 0], np.matmul)
            local[:-1] += (heads[1:, None, None, :] @ transfer[:-1])[..., 0, :]
            return local.reshape(-1, n_x)[:horizon]
    adjoints = big_gamma.copy()
    rows, jacs = list(adjoints), list(jac_x)
    head = jac_x[:1].flags
    if product is np.matmul and (head.c_contiguous or head.f_contiguous):
        # both hand a row times a C- or F-ordered matrix to BLAS and round
        # alike; ndarray.dot skips the gufunc dispatch
        product = np.ndarray.dot
    for k in range(horizon - 1, 0, -1):
        rows[k - 1] += product(rows[k], jacs[k - 1])
    return adjoints


def _analytic_parts(model, trajectory, dataset, spec, theta):
    """What both analytic gradients start from: the spot-checked trajectory's
    cost parts, the direct parameter gradient ``gamma.sum(0)`` plus the
    parameter-penalty gradient, the state seeds ``big_gamma``, and the
    transition Jacobians."""
    theta = np.asarray(theta, dtype=float)
    _spot_check_trajectory(model, trajectory, dataset, theta)
    per_step, penalty_total, weighted = _cost_parts(trajectory, dataset, spec, theta)
    gamma, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
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

    Above SCAN_MIN_HORIZON steps, with at most SCAN_MAX_STATES states, the
    pass runs as a chunked scan of O(T n_x^3) work (:func:`_backward_adjoints`),
    on a masked model as on a dense one; ``chain_applications`` is T-1 either
    way.  A masked model's products by its Jacobians take ``np.matmul`` under
    the name the benchmark traces, :func:`~msid.structure.sparse_chain_apply`.

    The trajectory must have been produced by :func:`~msid.model.rollout`
    under ``theta`` from its first stored state; a spot check re-evaluates
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
        grad_theta = np.concatenate([grad_theta[None], products]).cumsum(axis=0)[-1]
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
