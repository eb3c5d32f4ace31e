"""Differentiable penalties that encode physical knowledge in the cost.

A term is the derivatives it defines: a ``value``, a ``weight``, and
``grad_x`` and ``grad_theta`` where it has them; a derivative it lacks
counts as zero.  A term with ``grad_x`` is a state term, charged at every
step of the horizon, with bounds sized n_x.  It works row by row on a block
``x`` of states of shape (..., n_x) (a single state is a block of one):
``value`` has shape (...), ``grad_x`` (..., n_x) and ``grad_theta``, needed
only if the value depends on the parameters, (..., n_theta).  A term
without ``grad_x`` is a parameter term: it receives ``x=None``, is charged
once per cost evaluation, has bounds sized n_theta and needs ``grad_theta``.

So :class:`PenaltySpec` charges a whole trajectory with one call per term
and method, not one per step, and it raises :class:`DimensionMismatch`,
naming the term, when a term returns anything but one row per state.
Every term carries its own finite, nonnegative weight.  Built with bounds
that are not 1-D or hold a NaN (an infinite bound switches its component
off), a non-finite ``alpha`` or ``reference``, or an ``energy_grad`` that
is not callable, a term raises :class:`InvalidBox` naming it and the field;
it keeps a read-only copy of its bounds.  Bounds of the wrong length meet
:meth:`PenaltySpec.check_sizes` in every cost.

Exponential barriers saturate their exponent at the module constant
``EXP_CAP`` (700, just under the double-precision overflow boundary) so
that a grossly infeasible iterate yields a huge but finite value and a
finite gradient that still points back toward feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable

import numpy as np

from .errors import DimensionMismatch, InvalidBox
from .model import _freeze, _is_number, check_rows

Array = np.ndarray

EXP_CAP = 700.0


def _clipped_exp(exponent):
    return np.exp(np.minimum(exponent, EXP_CAP))


def _check_parameters(term) -> None:
    """Store each of the ``bound_fields`` of ``term`` as a read-only 1-D float
    copy free of NaN, and check its ``alpha``, if it has one, positive and finite."""
    for name in term.bound_fields:
        value = np.array(getattr(term, name), dtype=float)
        if value.ndim != 1 or np.isnan(value).any():
            raise InvalidBox(f"penalty term {type(term).__name__}: {name} must be 1-D and "
                             f"free of NaN, got {getattr(term, name)!r}")
        object.__setattr__(term, name, _freeze(value))
    alpha = getattr(term, "alpha", 1.0)
    if not (_is_number(alpha) and 0 < alpha < np.inf):
        raise InvalidBox(f"penalty term {type(term).__name__}: alpha must be positive and "
                         f"finite, got {term.alpha}")


@dataclass(frozen=True)
class EnergyConservation:
    """Quadratic deviation of a scalar energy function from a reference value.

    ``h(x) = (energy_fn(x) - reference)**2``, free of the parameters, so it
    has no ``grad_theta``.  ``energy_fn`` must be a fixed map of the state
    alone, applied row by row: it maps a block of states of shape (..., n_x)
    to energies of shape (...), over any leading axes, and ``energy_grad``
    the same block to gradients of shape (..., n_x).  A map giving another
    shape raises :class:`~msid.errors.DimensionMismatch` naming it.
    """

    energy_fn: Callable[[Array], Array]
    reference: float
    energy_grad: Callable[[Array], Array]
    weight: float = 1.0

    def __post_init__(self):
        if not (_is_number(self.reference) and np.isfinite(self.reference)):
            raise InvalidBox("penalty term EnergyConservation: reference must be finite, "
                             f"got {self.reference}")
        if not callable(self.energy_grad):
            raise InvalidBox("penalty term EnergyConservation: energy_grad must be callable, "
                             f"got {self.energy_grad!r}")

    def _deviation(self, x: Array) -> Array:
        """``energy_fn(x) - reference``, checked to give one energy per state of ``x``."""
        energies = np.asarray(self.energy_fn(x), dtype=float)
        if energies.shape != x.shape[:-1]:
            raise DimensionMismatch(f"energy_fn must map states of shape {x.shape} to shape "
                                    f"{x.shape[:-1]}, got {energies.shape}")
        return energies - self.reference

    def value(self, x, theta) -> Array:
        deviation = self._deviation(np.asarray(x, dtype=float))
        return deviation * deviation

    def grad_x(self, x, theta) -> Array:
        x = np.asarray(x, dtype=float)
        deviation, grad = self._deviation(x), np.asarray(self.energy_grad(x), dtype=float)
        if grad.shape != x.shape:
            raise DimensionMismatch(f"energy_grad must map states of shape {x.shape} to the "
                                    f"same shape, got {grad.shape}")
        return (2.0 * deviation)[..., None] * grad


@dataclass(frozen=True)
class _ExpBarrier:
    """Exponential barrier on each state component against its bound:
    ``h(x) = sum_i exp(2 * alpha * sign * (x_i - bounds_i))``, with the
    class-level ``sign`` of a subclass."""

    bounds: Array
    alpha: float
    weight: float = 1.0

    bound_fields: ClassVar[tuple] = ("bounds",)
    sign: ClassVar[float]

    def __post_init__(self):
        _check_parameters(self)

    def _exp(self, x) -> Array:
        # negation is exact, so sign -1 rounds as 2*alpha*(bounds - x) does
        return _clipped_exp(
            2.0 * self.alpha * self.sign * (np.asarray(x, dtype=float) - self.bounds))

    def value(self, x, theta) -> Array:
        return self._exp(x).sum(axis=-1)

    def grad_x(self, x, theta) -> Array:
        return 2.0 * self.alpha * self.sign * self._exp(x)


class UpperBarrier(_ExpBarrier):
    """Exponential barrier pushing each state component below its bound.

    ``h(x) = sum_i exp(2 * alpha * (x_i - bounds_i))``; a bound of +inf
    deactivates its component (contributes exactly zero).
    """

    sign = 1.0


class LowerBarrier(_ExpBarrier):
    """Exponential barrier pushing each state component above its bound.

    ``h(x) = sum_i exp(2 * alpha * (bounds_i - x_i))``; a bound of -inf
    deactivates its component.  With ``bounds = np.zeros(n_x)`` this is a
    soft non-negativity constraint on the state.
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

    bound_fields: ClassVar[tuple] = ("lower", "upper")

    def __post_init__(self):
        _check_parameters(self)
        if self.lower.shape != self.upper.shape:
            raise InvalidBox(f"bound shapes differ: {self.lower.shape} vs {self.upper.shape}")
        if not np.all(self.lower <= self.upper):
            raise InvalidBox("lower bound exceeds upper bound")

    def _exps(self, theta) -> tuple:
        """The exponentials above the upper and below the lower bound."""
        theta = np.asarray(theta, dtype=float)
        return (_clipped_exp(2.0 * self.alpha * (theta - self.upper)),
                _clipped_exp(2.0 * self.alpha * (self.lower - theta)))

    def value(self, x, theta) -> float:
        above, below = self._exps(theta)
        return float(above.sum() + below.sum())

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

    bound_fields: ClassVar[tuple] = ("bounds",)

    def __post_init__(self):
        _check_parameters(self)

    def value(self, x, theta) -> Array:
        return np.maximum(0.0, np.asarray(x, dtype=float) - self.bounds).sum(axis=-1)

    def grad_x(self, x, theta) -> Array:
        return (np.asarray(x, dtype=float) > self.bounds).astype(float)


@dataclass(frozen=True)
class PenaltySpec:
    """An ordered collection of penalty terms with per-term weights.

    The ``step_*`` methods take a block of states of shape (..., n_x) and
    return the weighted sum over the state terms that define the method, one
    row per state.  :class:`InvalidBox` refuses ``terms`` that is not an
    iterable and, naming the term, a ``value`` or a parameter term's
    ``grad_theta`` that is not callable, or a weight not finite and nonnegative.
    """

    terms: tuple

    def __post_init__(self):
        if not isinstance(self.terms, Iterable):
            raise InvalidBox(f"penalty terms must be an iterable, got {self.terms!r}")
        terms = tuple(self.terms)
        for term in terms:
            name, weight = type(term).__name__, getattr(term, "weight", None)
            for method in ("value",) if hasattr(term, "grad_x") else ("value", "grad_theta"):
                if not callable(getattr(term, method, None)):
                    raise InvalidBox(f"penalty term {name}: {method} must be callable")
            if not (_is_number(weight) and 0 <= weight < np.inf):
                raise InvalidBox(f"penalty term {name}: weight must be "
                                 f"finite and nonnegative, got {weight}")
        object.__setattr__(self, "terms", terms)

    def check_sizes(self, n_x: int, n_theta: int) -> None:
        """Refuse ``bound_fields`` not of one bound per state component or parameter."""
        for t in self.terms:
            size = n_x if hasattr(t, "grad_x") else n_theta
            for name in getattr(t, "bound_fields", ()):
                if len(getattr(t, name)) != size:
                    raise DimensionMismatch(f"penalty term {type(t).__name__}: {name} must "
                                            f"have length {size}, got {len(getattr(t, name))}")

    def _param_terms(self):
        return (t for t in self.terms if not hasattr(t, "grad_x"))

    def _row_sum(self, method: str, x, theta, tail: tuple) -> Array:
        """Weighted sum of ``method`` over the state terms that define it, each
        checked to give one row of shape ``tail`` per state row of ``x``."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1] + tail)
        for t in self.terms:
            if hasattr(t, "grad_x") and hasattr(t, method):
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
        grad = np.zeros(np.shape(theta))
        for t in self._param_terms():
            grad += t.weight * t.grad_theta(None, theta)
        return grad

    def total_value(self, states, theta) -> float:
        """Weighted penalty over a whole trajectory (states = first T rows)."""
        return float(self.param_value(theta) + self.step_value(states, theta).sum())


def project_box(theta, lower, upper) -> Array:
    """Componentwise clamp of the parameters onto [lower, upper].

    Idempotent and the identity on feasible points.  Raises
    :class:`InvalidBox` when any lower bound exceeds its upper bound or
    either is NaN, and :class:`DimensionMismatch` when a bound does not
    broadcast to the parameters' shape.
    """
    theta = np.asarray(theta, dtype=float)
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    try:
        lower, upper = np.broadcast_to(lower, theta.shape), np.broadcast_to(upper, theta.shape)
    except ValueError:
        raise DimensionMismatch(f"bounds of shapes {lower.shape} and {upper.shape} do not "
                                f"fit parameters of shape {theta.shape}") from None
    if not np.all(lower <= upper):
        raise InvalidBox("lower bound exceeds upper bound, or a bound is NaN")
    return np.clip(theta, lower, upper)
