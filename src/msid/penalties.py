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
``x=None``, are charged once per cost evaluation and have no ``grad_x``.
Every term carries its own finite, nonnegative weight and exposes analytic
gradients.  Built with bounds that are not 1-D or hold a NaN (an infinite
bound switches its component off), or a non-finite ``alpha`` or
``reference``, a term raises :class:`InvalidBox` naming it and the field.
Bounds of the wrong length meet :meth:`PenaltySpec.check_sizes` in every cost.

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


def _check_parameters(term) -> None:
    """Store each of the ``bound_fields`` of ``term`` as a 1-D float array
    free of NaN, and check its ``alpha``, if it has one, positive and finite."""
    for name in term.bound_fields:
        value = np.asarray(getattr(term, name), dtype=float)
        if value.ndim != 1 or np.isnan(value).any():
            raise InvalidBox(f"penalty term {type(term).__name__}: {name} must be 1-D and "
                             f"free of NaN, got {getattr(term, name)!r}")
        object.__setattr__(term, name, value)
    alpha = getattr(term, "alpha", 1.0)
    if not (np.asarray(alpha).dtype.kind in "iuf" and 0 < alpha < np.inf):
        raise InvalidBox(f"penalty term {type(term).__name__}: alpha must be positive and "
                         f"finite, got {term.alpha}")


def _zero_theta_rows(x, theta) -> Array:
    # the grad_theta of a term free of the parameters; PenaltySpec skips it
    return np.zeros(np.shape(x)[:-1] + np.shape(theta))


@dataclass(frozen=True)
class EnergyConservation:
    """Quadratic deviation of a scalar energy function from a reference value.

    ``h(x) = (energy_fn(x) - reference)**2``.  ``energy_fn`` must be a fixed
    map of the state alone, applied row by row: it maps a block of states of
    shape (..., n_x) to energies of shape (...), over any leading axes.
    ``energy_grad``, if given, maps the same block to gradients of shape
    (..., n_x); if omitted, the gradient is approximated by central
    differences of the whole block (:func:`~msid.model.numeric_jacobian`),
    which evaluate ``energy_fn`` once on every perturbed copy of the block,
    stacked on a new leading axis.  There the shape of the energies is
    checked on the block and on the stack, and a map that gives another
    shape raises :class:`~msid.errors.DimensionMismatch` naming ``energy_fn``.
    """

    energy_fn: Callable[[Array], Array]
    reference: float
    energy_grad: Optional[Callable[[Array], Array]] = None
    weight: float = 1.0

    depends_on_state: ClassVar[bool] = True

    def __post_init__(self):
        if not (np.asarray(self.reference).dtype.kind in "iuf"
                and np.isfinite(self.reference)):
            raise InvalidBox("penalty term EnergyConservation: reference must be finite, "
                             f"got {self.reference}")

    def _deviation(self, x) -> Array:
        return np.asarray(self.energy_fn(x), dtype=float) - self.reference

    def value(self, x, theta) -> Array:
        deviation = self._deviation(x)
        return deviation * deviation

    def _energies(self, x) -> Array:
        """``energy_fn(x)``, checked to give one energy per state of ``x``."""
        energies = np.asarray(self.energy_fn(x), dtype=float)
        if energies.shape != x.shape[:-1]:
            raise DimensionMismatch(f"energy_fn must map states of shape {x.shape} to shape "
                                    f"{x.shape[:-1]}, got {energies.shape}")
        return energies

    def grad_x(self, x, theta) -> Array:
        x = np.asarray(x, dtype=float)
        if self.energy_grad is not None:
            deviation = self._deviation(x)
            grad = np.asarray(self.energy_grad(x), dtype=float)
        else:
            # the stacked copies are checked too: a map that reduces every
            # axis gives one state the right shape, but not a block of them
            deviation = self._energies(x) - self.reference
            grad = numeric_jacobian(self._energies, x)
        return (2.0 * deviation)[..., None] * grad

    grad_theta = staticmethod(_zero_theta_rows)


@dataclass(frozen=True)
class _ExpBarrier:
    """Exponential barrier on each state component against its bound:
    ``h(x) = sum_i exp(2 * alpha * sign * (x_i - bounds_i))``, with the
    class-level ``sign`` of a subclass."""

    bounds: Array
    alpha: float
    weight: float = 1.0

    depends_on_state: ClassVar[bool] = True
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

    grad_theta = staticmethod(_zero_theta_rows)


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

    depends_on_state: ClassVar[bool] = False
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

    depends_on_state: ClassVar[bool] = True
    bound_fields: ClassVar[tuple] = ("bounds",)

    def __post_init__(self):
        _check_parameters(self)

    def value(self, x, theta) -> Array:
        return np.maximum(0.0, np.asarray(x, dtype=float) - self.bounds).sum(axis=-1)

    def grad_x(self, x, theta) -> Array:
        return (np.asarray(x, dtype=float) > self.bounds).astype(float)

    grad_theta = staticmethod(_zero_theta_rows)


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
            if not (np.asarray(term.weight).dtype.kind in "iuf" and 0 <= term.weight < np.inf):
                raise InvalidBox(f"penalty term {type(term).__name__}: weight must be "
                                 f"finite and nonnegative, got {term.weight}")
        object.__setattr__(self, "terms", terms)

    def check_sizes(self, n_x: int, n_theta: int) -> None:
        """Refuse ``bound_fields`` not of one bound per state component or parameter."""
        for t in self.terms:
            size = n_x if t.depends_on_state else n_theta
            for name in getattr(t, "bound_fields", ()):
                if len(getattr(t, name)) != size:
                    raise DimensionMismatch(f"penalty term {type(t).__name__}: {name} must "
                                            f"have length {size}, got {len(getattr(t, name))}")

    def _param_terms(self):
        return (t for t in self.terms if not t.depends_on_state)

    def _row_sum(self, method: str, x, theta, tail: tuple) -> Array:
        """Weighted sum of ``method`` over the state-dependent terms, each
        checked to give one row of shape ``tail`` per state row of ``x``; a
        ``_zero_theta_rows`` method would add its finite weight times zeros."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1] + tail)
        for t in self.terms:
            if t.depends_on_state and getattr(type(t), method, None) is not _zero_theta_rows:
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
