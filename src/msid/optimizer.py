"""ADAM and the identification loop.

One epoch rolls the model out under the current candidate, evaluates the
multi-step cost and its gradient, and takes one ADAM step on p = (theta,
x0), with one learning rate for the theta slots and one for the x0 slots
(they usually live on very different scales).  The loop stops when the
epoch budget is exhausted, the cost drops below its threshold, or the
gradient norm does; the reason is recorded.  Because the cost can rise
temporarily while the optimizer trades one parameter against another, the
returned estimate is the iterate with the lowest recorded cost, not the
last one; the full history is kept either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, DivergedRollout, NonFiniteGradient,
                     NonFiniteValue, OutsideDomain)
from .gradient import LossSpec, fd_gradient, gradient, gradient_naive
from .model import Dataset, DynamicalModel, rollout
from .penalties import project_box

Array = np.ndarray

MAX_CONSECUTIVE_REJECTIONS = 10

GRADIENT_METHODS = ("adjoint", "naive", "fd")


@dataclass(frozen=True)
class AdamState:
    """First/second moment estimates and hyperparameters of one ADAM instance.

    ``lr`` is one learning rate for every component, or a vector of one rate
    per component; ADAM acts element by element.  Each must be finite and > 0.
    """

    m: Array
    v: Array
    t: int
    lr: Array
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, n: int, lr, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> "AdamState":
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("decay rates must lie in (0, 1)")
        lr = np.array(lr, dtype=float)
        if lr.shape not in ((), (n,)):
            raise DimensionMismatch(f"lr must be a scalar or have shape ({n},), got {lr.shape}")
        if not (np.all(lr > 0) and np.all(np.isfinite(lr)) and 0 < eps < math.inf):
            raise ValueError("learning rate and eps must be finite and positive")
        return cls(m=np.zeros(n), v=np.zeros(n), t=0, lr=lr,
                   beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, grad, params) -> tuple[Array, AdamState]:
    """One bias-corrected ADAM update; returns (new params, new state)."""
    grad = np.asarray(grad, dtype=float)
    params = np.asarray(params, dtype=float)
    if grad.shape != params.shape or grad.shape != state.m.shape:
        raise DimensionMismatch(
            f"gradient {grad.shape}, params {params.shape}, and moments "
            f"{state.m.shape} must share one shape")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains non-finite components")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, replace(state, m=m, v=v, t=t)


@dataclass(frozen=True)
class StoppingCriteria:
    """Epoch budget plus cost and gradient-norm thresholds.

    A threshold of zero disables its condition (cost and norm are never
    negative).
    """

    max_epochs: int
    cost_tol: float = 0.0
    grad_tol: float = 0.0

    def __post_init__(self):
        if not self.max_epochs >= 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (self.cost_tol >= 0 and self.grad_tol >= 0):
            raise ValueError("thresholds must be nonnegative")


class StopReason(str, Enum):
    MAX_EPOCHS = "max_epochs"
    COST_BELOW_TOL = "cost_below_tol"
    GRAD_BELOW_TOL = "grad_below_tol"


@dataclass(frozen=True)
class HistoryRecord:
    """One evaluated iterate: epoch index, cost, gradient norm, and the
    candidate itself (before its update)."""

    epoch: int
    cost: float
    grad_norm: float
    theta: Array
    x0: Array


@dataclass(frozen=True)
class IdentifyOptions:
    """Knobs of the identification loop."""

    lr_theta: float = 1e-3
    lr_x0: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    stopping: StoppingCriteria = field(default_factory=lambda: StoppingCriteria(1000))
    box: Optional[tuple] = None
    gradient_method: str = "adjoint"
    fd_step: float = 1e-6

    def __post_init__(self):
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(
                f"gradient_method must be one of {GRADIENT_METHODS}, "
                f"got {self.gradient_method!r}")


@dataclass(frozen=True)
class IdentificationRun:
    """Result of one identification: history, stop reason and best record."""

    history: tuple
    stop_reason: StopReason
    rejected_steps: int = 0

    @property
    def epochs(self) -> int:
        return len(self.history)

    @property
    def best_record(self) -> HistoryRecord:
        """The first record with the lowest cost: ``theta_hat`` and ``x0_hat``."""
        costs = [record.cost for record in self.history]
        return self.history[int(np.argmin(costs))]

    @property
    def theta_hat(self) -> Array:
        return self.best_record.theta.copy()

    @property
    def x0_hat(self) -> Array:
        return self.best_record.x0.copy()

    @property
    def final_record(self) -> HistoryRecord:
        return self.history[-1]


def _evaluate(model, dataset, spec, theta, x0, method, fd_step):
    if method == "fd":
        return fd_gradient(model, x0, theta, dataset, spec, step=fd_step)
    trajectory = rollout(model, x0, theta, dataset.inputs)
    if method == "naive":
        return gradient_naive(model, trajectory, dataset, spec, theta)
    return gradient(model, trajectory, dataset, spec, theta)


# a non-finite candidate is rejected or raised below, not warned
@np.errstate(over="ignore", invalid="ignore")
def identify(model: DynamicalModel, dataset: Dataset, spec: LossSpec,
             theta0, x0, options: Optional[IdentifyOptions] = None) -> IdentificationRun:
    """Fit parameters and initial state by gradient descent on the
    multi-step cost.

    Every epoch: rollout, cost and gradient, one ADAM update of p = (theta,
    x0) with the learning rate ``lr_theta`` on the theta slots and ``lr_x0``
    on the x0 slots, optional projection of the theta slice onto a box,
    stopping check.  An epoch whose candidate makes the rollout or the cost
    non-finite, or lies outside the model's domain (:class:`OutsideDomain`,
    e.g. a nonpositive inertia), is rejected: the previous candidate and
    ADAM state are restored, every learning rate is halved, and the update
    is retried; after ``MAX_CONSECUTIVE_REJECTIONS`` rejections in a row the
    run aborts with :class:`DivergedRollout`.  At the initial candidate
    there is nothing to restore: a non-finite evaluation raises
    :class:`DivergedRollout` and an out-of-domain one re-raises its error.
    """
    options = options or IdentifyOptions()
    stopping = options.stopping
    theta = np.array(theta0, dtype=float)
    x0 = np.array(x0, dtype=float)
    n_theta, n_x = model.dims.n_theta, model.dims.n_x
    if theta.shape != (n_theta,):
        raise DimensionMismatch(f"theta0 must have shape ({n_theta},), got {theta.shape}")
    if x0.shape != (n_x,):
        raise DimensionMismatch(f"x0 must have shape ({n_x},), got {x0.shape}")
    box = None
    if options.box is not None:
        lower, upper = options.box
        box = (np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        project_box(theta, *box)  # validates the box ordering

    p = np.concatenate([theta, x0])
    lr = np.concatenate([np.full(n_theta, options.lr_theta), np.full(n_x, options.lr_x0)])
    adam = AdamState.fresh(p.size, lr, options.beta1, options.beta2, options.eps)
    history = []
    previous = None
    rejected = 0
    consecutive = 0
    epoch = 0

    while True:
        try:
            report = _evaluate(model, dataset, spec, p[:n_theta], p[n_theta:],
                               options.gradient_method, options.fd_step)
        except (NonFiniteValue, OutsideDomain) as exc:
            rejected += 1
            consecutive += 1
            if previous is None:
                if isinstance(exc, OutsideDomain):
                    raise
                raise DivergedRollout(
                    "rollout diverged at the initial candidate", epoch=epoch)
            if consecutive >= MAX_CONSECUTIVE_REJECTIONS:
                raise DivergedRollout(
                    f"{consecutive} consecutive rejected steps", epoch=epoch)
            p, adam, grad = previous
            adam = replace(adam, lr=adam.lr / 2.0)
        else:
            consecutive = 0
            grad_theta, grad_x0 = report.grad_theta, report.grad_x0
            grad = np.concatenate([grad_theta, grad_x0])
            # block by block: the norm of p would sum in another order
            grad_norm = math.sqrt(float(grad_theta @ grad_theta) + float(grad_x0 @ grad_x0))
            history.append(HistoryRecord(epoch=epoch, cost=report.cost,
                                         grad_norm=grad_norm,
                                         theta=p[:n_theta].copy(), x0=p[n_theta:].copy()))
            if stopping.cost_tol > 0.0 and report.cost < stopping.cost_tol:
                stop_reason = StopReason.COST_BELOW_TOL
                break
            if stopping.grad_tol > 0.0 and grad_norm < stopping.grad_tol:
                stop_reason = StopReason.GRAD_BELOW_TOL
                break
            if epoch >= stopping.max_epochs:
                stop_reason = StopReason.MAX_EPOCHS
                break
            epoch += 1

        # a rejected step retries the update from the restored candidate
        previous = (p, adam, grad)
        p, adam = adam_step(adam, grad, p)
        if box is not None:
            p[:n_theta] = project_box(p[:n_theta], *box)

    return IdentificationRun(tuple(history), stop_reason, rejected_steps=rejected)
