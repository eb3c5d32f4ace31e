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

Exponential barriers saturate their exponent at the module constant
``EXP_CAP`` (700, just under the double-precision overflow boundary) so
that a grossly infeasible iterate yields a huge but finite value and a
finite gradient that still points back toward feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import DimensionMismatch, InvalidBox
from .model import check_rows, numeric_jacobian

Array = np.ndarray

EXP_CAP = 700.0


def _clipped_exp(exponent):
    return np.exp(np.minimum(exponent, EXP_CAP))


def _zero_theta_rows(x, theta) -> Array:
    return np.zeros(np.shape(x)[:-1] + np.shape(theta))


@dataclass(frozen=True)
class EnergyConservation:
    """Quadratic deviation of a scalar energy function from a reference value.

    ``h(x) = (energy_fn(x) - reference)**2``.  ``energy_fn`` must be a fixed
    map of the state alone, applied row by row: it maps a block of states of
    shape (..., n_x) to energies of shape (...).  ``energy_grad``, if given,
    maps the same block to gradients of shape (..., n_x); if omitted, the
    gradient is approximated by central differences of the whole block
    (:func:`~msid.model.numeric_jacobian`).
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
            grad = numeric_jacobian(self.energy_fn, x)
        return (2.0 * deviation)[..., None] * grad

    def grad_theta(self, x, theta) -> Array:
        return _zero_theta_rows(x, theta)


@dataclass(frozen=True)
class _ExpBarrier:
    """Exponential barrier on each state component against its bound:
    ``h(x) = sum_i exp(2 * alpha * sign * (x_i - bounds_i))``, with the
    class-level ``sign`` of a subclass."""

    bounds: Array
    alpha: float
    weight: float = 1.0

    depends_on_state: ClassVar[bool] = True
    sign: ClassVar[float]

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        if not self.alpha > 0:
            raise InvalidBox(f"alpha must be positive, got {self.alpha}")

    def _exp(self, x) -> Array:
        # negation is exact, so sign -1 rounds as 2*alpha*(bounds - x) does
        return _clipped_exp(
            2.0 * self.alpha * self.sign * (np.asarray(x, dtype=float) - self.bounds))

    def value(self, x, theta) -> Array:
        return np.sum(self._exp(x), axis=-1)

    def grad_x(self, x, theta) -> Array:
        return 2.0 * self.alpha * self.sign * self._exp(x)

    def grad_theta(self, x, theta) -> Array:
        return _zero_theta_rows(x, theta)


class UpperBarrier(_ExpBarrier):
    """Exponential barrier pushing each state component below its bound.

    ``h(x) = sum_i exp(2 * alpha * (x_i - bounds_i))``; a bound of +inf
    deactivates its component (contributes exactly zero).
    """

    sign = 1.0


class LowerBarrier(_ExpBarrier):
    """Exponential barrier pushing each state component above its bound.

    ``h(x) = sum_i exp(2 * alpha * (bounds_i - x_i))``; a bound of -inf
    deactivates its component.  With ``bounds = 0`` this is a soft
    non-negativity constraint on the state.
    """

    sign = -1.0


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

    depends_on_state: ClassVar[bool] = False

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape:
            raise InvalidBox(f"bound shapes differ: {lower.shape} vs {upper.shape}")
        if not np.all(lower <= upper):
            raise InvalidBox("lower bound exceeds upper bound, or a bound is NaN")
        if not self.alpha > 0:
            raise InvalidBox(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def _exps(self, theta) -> tuple:
        """The exponentials above the upper and below the lower bound."""
        theta = np.asarray(theta, dtype=float)
        return (_clipped_exp(2.0 * self.alpha * (theta - self.upper)),
                _clipped_exp(2.0 * self.alpha * (self.lower - theta)))

    def value(self, x, theta) -> float:
        above, below = self._exps(theta)
        return float(np.sum(above) + np.sum(below))

    def grad_x(self, x, theta) -> Array:
        return np.zeros_like(np.asarray(x, dtype=float))

    def grad_theta(self, x, theta) -> Array:
        above, below = self._exps(theta)
        return 2.0 * self.alpha * (above - below)


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
            if not term.weight >= 0:
                raise InvalidBox(f"penalty weight must be nonnegative, got {term.weight}")
        object.__setattr__(self, "terms", terms)

    def _param_terms(self):
        return (t for t in self.terms if not t.depends_on_state)

    def _row_sum(self, method: str, x, theta, tail: tuple) -> Array:
        """Weighted sum of ``method`` over the state-dependent terms, each
        checked to give one row of shape ``tail`` per state row of ``x``."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1] + tail)
        for t in self.terms:
            if t.depends_on_state:
                total += t.weight * check_rows(f"penalty term {type(t).__name__}.{method}",
                                               getattr(t, method)(x, theta), total.shape)
        return total

    def step_value(self, x, theta) -> Array:
        """Weighted penalty charged at each state row of ``x``, shape (...)."""
        return self._row_sum("value", x, theta, ())

    def step_grad_x(self, x, theta) -> Array:
        """Gradient of :meth:`step_value` w.r.t. each state row, shape (..., n_x)."""
        return self._row_sum("grad_x", x, theta, np.shape(x)[-1:])

    def step_grad_theta(self, x, theta) -> Array:
        """Gradient of :meth:`step_value` w.r.t. the parameters, one row per
        state, shape (..., n_theta)."""
        return self._row_sum("grad_theta", x, theta, np.shape(theta))

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


def project_box(theta, lower, upper) -> Array:
    """Componentwise clamp of the parameters onto [lower, upper].

    Idempotent and the identity on feasible points.  Raises
    :class:`InvalidBox` when any lower bound exceeds its upper bound or
    either is NaN.
    """
    theta = np.asarray(theta, dtype=float)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), theta.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), theta.shape)
    if not np.all(lower <= upper):
        raise InvalidBox("lower bound exceeds upper bound, or a bound is NaN")
    return np.clip(theta, lower, upper)
