"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergenceError(ArithmeticError):
    """An iterative evaluation failed to reach its accuracy target."""


class QuadratureError(NonConvergenceError):
    """Adaptive quadrature could not meet the requested error bound.

    Carries the achieved error estimate so callers can report it.
    """

    def __init__(self, message: str, achieved_error: float = float("nan")):
        super().__init__(message)
        self.achieved_error = achieved_error


class UnsupportedModulationError(ValueError):
    """The requested estimator only supports BPSK."""


class FrozenInstanceError(AttributeError):
    """A field of an immutable value was assigned or deleted."""
