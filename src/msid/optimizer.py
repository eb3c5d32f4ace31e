"""ADAM and the identification loop.

:func:`identify` runs ADAM on p = (theta, x0), with one learning rate for the
theta slots and one for the x0 slots (they usually live on very different
scales).  Each epoch records the accepted candidate and takes one
accept-or-retry step: a candidate the model cannot evaluate is rejected, and
the step is retried from the accepted state at half the learning rates.
Because the cost can rise temporarily while the optimizer trades one
parameter against another, the returned estimate is the iterate with the
lowest recorded cost, not the last one; the full history is kept either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, DivergedRollout, InvalidBox, NonFiniteGradient,
                     NonFiniteValue, OutsideDomain)
from .gradient import LossSpec, fd_gradient, gradient
from .model import Dataset, DynamicalModel, _is_count, _is_number, rollout
from .penalties import project_box

Array = np.ndarray

MAX_CONSECUTIVE_REJECTIONS = 10

GRADIENT_METHODS = ("adjoint", "fd")


def _check_open(name: str, value, upper: float = math.inf) -> None:
    """Refuse a ``value``, a number or a vector, outside the open interval (0, upper)."""
    array = np.asarray(value)
    if not (array.dtype.kind in "iuf" and (array > 0).all() and (array < upper).all()):
        raise ValueError(f"{name} must lie in (0, {upper}), got {value!r}")


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
        if not _is_count(n, 0):
            raise ValueError(f"n must be an integer >= 0, got {n!r}")
        _check_open("beta1", beta1, 1)
        _check_open("beta2", beta2, 1)
        lr = np.array(lr, dtype=float)
        if lr.shape not in ((), (n,)):
            raise DimensionMismatch(f"lr must be a scalar or have shape ({n},), got {lr.shape}")
        _check_open("lr", lr)
        _check_open("eps", eps)
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
    if not all(map(math.isfinite, grad.ravel().tolist())):
        raise NonFiniteGradient("gradient contains non-finite components")
    beta1, beta2, t = state.beta1, state.beta2, state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    # the constructor, not dataclasses.replace: the same state, at less cost
    return new_params, AdamState(m, v, t, state.lr, beta1, beta2, state.eps)


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
    """Knobs of the identification loop: the fields and defaults of
    ``msid.config.OptimizerConfig``, ``box`` as a ``(lower, upper)`` pair
    (kept as tuples of floats, so that options compare and hash).
    A ``cost_tol`` or ``grad_tol`` of 0 disables its stopping condition.
    Each field is checked when built, by a ``ValueError`` naming it; only the
    box length against the model's parameter count waits for :func:`identify`."""

    lr_theta: float = 1e-3
    lr_x0: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 1000
    cost_tol: float = 0.0
    grad_tol: float = 0.0
    box: Optional[tuple] = None
    gradient_method: str = "adjoint"
    fd_step: float = 1e-6

    def __post_init__(self):
        if not _is_count(self.max_epochs, 1):
            raise ValueError(f"max_epochs must be an integer >= 1, got {self.max_epochs!r}")
        for name in ("cost_tol", "grad_tol"):
            value = getattr(self, name)
            if not (_is_number(value) and value >= 0):
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        for name, upper in (("lr_theta", math.inf), ("lr_x0", math.inf), ("eps", math.inf),
                            ("fd_step", math.inf), ("beta1", 1), ("beta2", 1)):
            value = getattr(self, name)
            if not (_is_number(value) and 0 < value < upper):
                raise ValueError(f"{name} must lie in (0, {upper}) and be a single number, "
                                 f"got {value!r}")
        if self.box is not None:
            try:
                lower, upper = (np.asarray(bound, dtype=float) for bound in self.box)
                valid = lower.ndim == 1 and lower.shape == upper.shape and all(lower <= upper)
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise InvalidBox("box must be a (lower, upper) pair of equal-length 1-D bounds, "
                                 f"free of NaN, with lower <= upper; got {self.box!r}")
            object.__setattr__(self, "box", (tuple(lower.tolist()), tuple(upper.tolist())))
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


# a non-finite candidate is rejected or raised below, not warned
@np.errstate(over="ignore", invalid="ignore")
def identify(model: DynamicalModel, dataset: Dataset, spec: LossSpec,
             theta0, x0, options: Optional[IdentifyOptions] = None) -> IdentificationRun:
    """Fit parameters and initial state by ADAM on the multi-step cost.

    The initial candidate p = (theta0, x0) is evaluated once: a non-finite
    evaluation raises :class:`DivergedRollout`, and one outside the model's
    domain (:class:`OutsideDomain`, e.g. a nonpositive inertia) re-raises its
    error.  Each epoch then records the accepted candidate and its gradient
    norm (the root of a ``math.fsum`` of squares: no BLAS kernel sets its
    bits), checks the stopping rules (``max_epochs`` updates, ``cost_tol``,
    ``grad_tol``) and proposes the next candidate from the accepted p and
    ADAM state: one ADAM update (``lr_theta`` on the theta slots, ``lr_x0`` on
    the x0 slots), then the optional projection of theta onto ``box``.  A
    candidate whose evaluation is non-finite or outside the domain is
    rejected: the learning rates of the accepted state are halved and the
    step is proposed again.  After ``MAX_CONSECUTIVE_REJECTIONS`` rejections
    in a row the run aborts with :class:`DivergedRollout`.
    """
    options = options or IdentifyOptions()
    theta = np.array(theta0, dtype=float)
    x0 = np.array(x0, dtype=float)
    n_theta, n_x = model.dims.n_theta, model.dims.n_x
    if theta.shape != (n_theta,):
        raise DimensionMismatch(f"theta0 must have shape ({n_theta},), got {theta.shape}")
    if x0.shape != (n_x,):
        raise DimensionMismatch(f"x0 must have shape ({n_x},), got {x0.shape}")
    box = None
    if options.box is not None:
        box = tuple(np.asarray(bound, dtype=float) for bound in options.box)
        if box[0].shape != (n_theta,):
            raise DimensionMismatch(f"box bounds must have shape ({n_theta},), got {box[0].shape}")

    def evaluate(p):
        theta, x0 = p[:n_theta], p[n_theta:]
        if options.gradient_method == "fd":
            return fd_gradient(model, x0, theta, dataset, spec, step=options.fd_step)
        return gradient(model, rollout(model, x0, theta, dataset.inputs), dataset, spec, theta)

    p = np.concatenate([theta, x0])
    lr = np.concatenate([np.full(n_theta, options.lr_theta), np.full(n_x, options.lr_x0)])
    adam = AdamState.fresh(p.size, lr, options.beta1, options.beta2, options.eps)
    try:
        report = evaluate(p)
    except NonFiniteValue:
        raise DivergedRollout("rollout diverged at the initial candidate", epoch=0)
    history, rejected = [], 0
    for epoch in itertools.count():
        grad = np.concatenate([report.grad_theta, report.grad_x0])
        try:
            grad_norm = math.sqrt(math.fsum((grad * grad).tolist()))
        except OverflowError:  # finite squares whose sum exceeds the float range
            grad_norm = math.inf
        history.append(HistoryRecord(epoch=epoch, cost=report.cost, grad_norm=grad_norm,
                                     theta=p[:n_theta].copy(), x0=p[n_theta:].copy()))
        if options.cost_tol > 0.0 and report.cost < options.cost_tol:
            stop_reason = StopReason.COST_BELOW_TOL
            break
        if options.grad_tol > 0.0 and grad_norm < options.grad_tol:
            stop_reason = StopReason.GRAD_BELOW_TOL
            break
        if epoch >= options.max_epochs:
            stop_reason = StopReason.MAX_EPOCHS
            break
        for _ in range(MAX_CONSECUTIVE_REJECTIONS):
            candidate, proposed = adam_step(adam, grad, p)
            if box is not None:
                candidate[:n_theta] = project_box(candidate[:n_theta], *box)
            try:
                report = evaluate(candidate)
                break
            except (NonFiniteValue, OutsideDomain):
                rejected += 1
                adam = replace(adam, lr=adam.lr / 2.0)
        else:
            raise DivergedRollout(f"{MAX_CONSECUTIVE_REJECTIONS} consecutive rejected steps",
                                  epoch=epoch + 1)
        p, adam = candidate, proposed

    return IdentificationRun(tuple(history), stop_reason, rejected_steps=rejected)
