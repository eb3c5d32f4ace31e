"""Exception types shared across the package."""


class MsidError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(MsidError, ValueError):
    """A vector or matrix has a shape inconsistent with the declared dimensions."""


class NonFiniteValue(MsidError, ArithmeticError):
    """A numeric computation produced NaN or infinity."""


class NonFiniteState(NonFiniteValue):
    """A rollout produced a non-finite state component.

    ``step`` holds the index of the first offending step.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NonFiniteGradient(NonFiniteValue):
    """An optimizer update received a non-finite gradient."""


class TrajectoryMismatch(MsidError, ValueError):
    """A stored trajectory does not reproduce under the supplied parameters."""


class OutsideDomain(MsidError, ValueError):
    """A candidate lies outside the set of points where the model is defined.

    The identification loop rejects such a candidate and retries with a
    smaller step, as it does for a non-finite rollout.
    """


class NonPositiveInertia(OutsideDomain):
    """Inertia components must be strictly positive for evaluation."""


class InvalidBox(MsidError, ValueError):
    """A box constraint has a lower bound above its upper bound."""


class DivergedRollout(MsidError, RuntimeError):
    """Identification aborted after repeated rollout divergence.

    ``epoch`` holds the epoch at which the abort happened.
    """

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class ConfigError(MsidError, ValueError):
    """A run configuration is invalid; the message names the offending field."""
