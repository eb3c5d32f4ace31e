"""Differentiable penalties that encode physical knowledge in the cost.

Terms work row by row.  A state-dependent term receives a block ``x`` of
states of shape (..., n_x) (a single state is a block of one) and returns
one result per row:

* ``value(x, theta)`` has shape (...);
* ``grad_x(x, theta)`` has shape (..., n_x);
* ``grad_theta(x, theta)`` has shape (..., n_theta).

So :class:`PenaltySpec` charges a whole trajectory with one call per term
and method, not one per step, and it raises :class:`DimensionMismatch`,
naming the term, when a term returns anything but one row per state.
State-dependent terms (energy deviation, state bounds) are charged at every
step of the horizon.  Parameter-only terms (parameter box) receive
``x=None`` and are charged once per cost evaluation.  Every term carries
its own nonnegative weight and exposes analytic gradients with respect to
the state and the parameters; one of the two is identically zero for
single-argument terms.

Exponential barriers saturate their exponent at ``exp_cap`` (default 700,
just under the double-precision overflow boundary) so that a grossly
infeasible iterate yields a huge but finite value and a finite gradient
that still points back toward feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidBox, NonFiniteValue
from .model import FD_STEP

Array = np.ndarray

EXP_CAP = 700.0


def _clipped_exp(exponent, cap):
    return np.exp(np.minimum(exponent, cap))


def _zero_theta_rows(x, theta) -> Array:
    return np.zeros(np.shape(x)[:-1] + np.shape(theta))


def _row_gradient(fn, x: Array, step: float = FD_STEP) -> Array:
    """Central-difference gradient of the row-wise scalar map ``fn`` at every
    row of ``x``, one column of the whole block at a time.

    The perturbation of component j is ``step * max(1, |x_j|)`` in each row,
    as in :func:`~msid.model.numeric_jacobian`.
    """
    grad = np.empty_like(x)
    for j in range(x.shape[-1]):
        h = step * np.maximum(1.0, np.abs(x[..., j]))
        plus = x.copy()
        plus[..., j] += h
        minus = x.copy()
        minus[..., j] -= h
        f_plus = np.asarray(fn(plus), dtype=float)
        f_minus = np.asarray(fn(minus), dtype=float)
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise NonFiniteValue(f"non-finite evaluation while differencing component {j}")
        # divide by the exact spacing of the two evaluated points, not by 2h
        grad[..., j] = (f_plus - f_minus) / (plus[..., j] - minus[..., j])
    return grad


@dataclass(frozen=True)
class EnergyConservation:
    """Quadratic deviation of a scalar energy function from a reference value.

    ``h(x) = (energy_fn(x) - reference)**2``.  ``energy_fn`` must be a fixed
    map of the state alone, applied row by row: it maps a block of states of
    shape (..., n_x) to energies of shape (...).  ``energy_grad``, if given,
    maps the same block to gradients of shape (..., n_x); if omitted, the
    gradient is approximated by central differences.
    """

    energy_fn: Callable[[Array], Array]
    reference: float
    energy_grad: Optional[Callable[[Array], Array]] = None
    weight: float = 1.0

    depends_on_state: ClassVar[bool] = True

    def _deviation(self, x) -> Array:
        return np.asarray(self.energy_fn(x), dtype=float) - self.reference

    def value(self, x, theta) -> Array:
        deviation = self._deviation(x)
        return deviation * deviation

    def grad_x(self, x, theta) -> Array:
        x = np.asarray(x, dtype=float)
        deviation = self._deviation(x)
        if self.energy_grad is not None:
            grad = np.asarray(self.energy_grad(x), dtype=float)
        else:
            grad = _row_gradient(self.energy_fn, x)
        return (2.0 * deviation)[..., None] * grad

    def grad_theta(self, x, theta) -> Array:
        return _zero_theta_rows(x, theta)


@dataclass(frozen=True)
class UpperBarrier:
    """Exponential barrier pushing each state component below its bound.

    ``h(x) = sum_i exp(2 * alpha * (x_i - bounds_i))``; a bound of +inf
    deactivates its component (contributes exactly zero).
    """

    bounds: Array
    alpha: float
    weight: float = 1.0
    exp_cap: float = EXP_CAP

    depends_on_state: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        if not self.alpha > 0:
            raise InvalidBox(f"alpha must be positive, got {self.alpha}")

    def _exp(self, x) -> Array:
        exponent = 2.0 * self.alpha * (np.asarray(x, dtype=float) - self.bounds)
        return _clipped_exp(exponent, self.exp_cap)

    def value(self, x, theta) -> Array:
        return np.sum(self._exp(x), axis=-1)

    def grad_x(self, x, theta) -> Array:
        return 2.0 * self.alpha * self._exp(x)

    def grad_theta(self, x, theta) -> Array:
        return _zero_theta_rows(x, theta)


@dataclass(frozen=True)
class LowerBarrier:
    """Exponential barrier pushing each state component above its bound.

    ``h(x) = sum_i exp(2 * alpha * (bounds_i - x_i))``; a bound of -inf
    deactivates its component.  With ``bounds = 0`` this is a soft
    non-negativity constraint on the state.
    """

    bounds: Array
    alpha: float
    weight: float = 1.0
    exp_cap: float = EXP_CAP

    depends_on_state: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        if not self.alpha > 0:
            raise InvalidBox(f"alpha must be positive, got {self.alpha}")

    def _exp(self, x) -> Array:
        exponent = 2.0 * self.alpha * (self.bounds - np.asarray(x, dtype=float))
        return _clipped_exp(exponent, self.exp_cap)

    def value(self, x, theta) -> Array:
        return np.sum(self._exp(x), axis=-1)

    def grad_x(self, x, theta) -> Array:
        return -2.0 * self.alpha * self._exp(x)

    def grad_theta(self, x, theta) -> Array:
        return _zero_theta_rows(x, theta)


@dataclass(frozen=True)
class ParameterBox:
    """Two-sided exponential barrier keeping the parameters inside a box.

    ``h(theta) = sum_i exp(2*alpha*(theta_i - upper_i))
               + sum_i exp(2*alpha*(lower_i - theta_i))``.
    Charged once per cost evaluation, not once per step, so its weight does
    not silently rescale with the horizon.
    """

    lower: Array
    upper: Array
    alpha: float
    weight: float = 1.0
    exp_cap: float = EXP_CAP

    depends_on_state: ClassVar[bool] = False

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape:
            raise InvalidBox(f"bound shapes differ: {lower.shape} vs {upper.shape}")
        if np.any(lower > upper):
            raise InvalidBox("lower bound exceeds upper bound")
        if not self.alpha > 0:
            raise InvalidBox(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def value(self, x, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        above = 2.0 * self.alpha * (theta - self.upper)
        below = 2.0 * self.alpha * (self.lower - theta)
        return float(np.sum(_clipped_exp(above, self.exp_cap))
                     + np.sum(_clipped_exp(below, self.exp_cap)))

    def grad_x(self, x, theta) -> Array:
        return np.zeros_like(np.asarray(x, dtype=float))

    def grad_theta(self, x, theta) -> Array:
        theta = np.asarray(theta, dtype=float)
        above = 2.0 * self.alpha * (theta - self.upper)
        below = 2.0 * self.alpha * (self.lower - theta)
        return 2.0 * self.alpha * (_clipped_exp(above, self.exp_cap)
                                   - _clipped_exp(below, self.exp_cap))


@dataclass(frozen=True)
class ReluUpperBound:
    """Hinge penalty ``h(x) = sum_i max(0, x_i - bounds_i)``.

    Kept as a documented alternative to :class:`UpperBarrier`; it penalizes
    violations only linearly and is not differentiable at the bound (the
    subgradient used here is 0 there), so the exponential barrier is the
    recommended default.
    """

    bounds: Array
    weight: float = 1.0

    depends_on_state: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))

    def value(self, x, theta) -> Array:
        return np.sum(np.maximum(0.0, np.asarray(x, dtype=float) - self.bounds), axis=-1)

    def grad_x(self, x, theta) -> Array:
        return (np.asarray(x, dtype=float) > self.bounds).astype(float)

    def grad_theta(self, x, theta) -> Array:
        return _zero_theta_rows(x, theta)


@dataclass(frozen=True)
class PenaltySpec:
    """An ordered collection of penalty terms with per-term weights.

    The ``step_*`` methods take a block of states of shape (..., n_x) and
    return the weighted sum over the state-dependent terms, one row per
    state.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        for term in terms:
            if term.weight < 0:
                raise InvalidBox(f"penalty weight must be nonnegative, got {term.weight}")
        object.__setattr__(self, "terms", terms)

    def _state_terms(self):
        return (t for t in self.terms if t.depends_on_state)

    def _param_terms(self):
        return (t for t in self.terms if not t.depends_on_state)

    def step_value(self, x, theta) -> Array:
        """Weighted penalty charged at each state row of ``x``, shape (...)."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for t in self._state_terms():
            total += t.weight * _rows(t, "value", t.value(x, theta), total.shape)
        return total

    def step_grad_x(self, x, theta) -> Array:
        """Gradient of :meth:`step_value` w.r.t. each state row, shape (..., n_x)."""
        x = np.asarray(x, dtype=float)
        grad = np.zeros_like(x)
        for t in self._state_terms():
            grad += t.weight * _rows(t, "grad_x", t.grad_x(x, theta), grad.shape)
        return grad

    def step_grad_theta(self, x, theta) -> Array:
        """Gradient of :meth:`step_value` w.r.t. the parameters, one row per
        state, shape (..., n_theta)."""
        x = np.asarray(x, dtype=float)
        grad = _zero_theta_rows(x, theta)
        for t in self._state_terms():
            grad += t.weight * _rows(t, "grad_theta", t.grad_theta(x, theta), grad.shape)
        return grad

    def param_value(self, theta) -> float:
        """Weighted parameter-only penalty, charged once per evaluation."""
        return sum(t.weight * t.value(None, theta) for t in self._param_terms())

    def param_grad(self, theta) -> Array:
        grad = np.zeros_like(np.asarray(theta, dtype=float))
        for t in self._param_terms():
            grad += t.weight * t.grad_theta(None, theta)
        return grad

    def total_value(self, states, theta) -> float:
        """Weighted penalty over a whole trajectory (states = first T rows)."""
        return float(self.param_value(theta) + np.sum(self.step_value(states, theta)))


def _rows(term, method: str, result, shape: tuple) -> Array:
    """``result`` of ``term.method`` as an array, checked to hold one row per
    state; a term written for a single point would otherwise be charged once
    for the whole block."""
    result = np.asarray(result, dtype=float)
    if result.shape != shape:
        raise DimensionMismatch(
            f"penalty term {type(term).__name__}.{method} returned shape "
            f"{result.shape}, expected {shape}: terms must return one row per state")
    return result


def eval_penalty(term, x, theta) -> float:
    """Unweighted penalty value of a single term."""
    return term.value(x, theta)


def penalty_gradients(term, x, theta) -> tuple[Array, Array]:
    """Unweighted analytic gradients (d/dx, d/dtheta) of a single term."""
    return term.grad_x(x, theta), term.grad_theta(x, theta)


def project_box(theta, lower, upper) -> Array:
    """Componentwise clamp of the parameters onto [lower, upper].

    Idempotent and the identity on feasible points.  Raises
    :class:`InvalidBox` when any lower bound exceeds its upper bound.
    """
    theta = np.asarray(theta, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), theta.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), theta.shape)
    if np.any(lower > upper):
        raise InvalidBox("lower bound exceeds upper bound")
    return np.clip(theta, lower, upper)
