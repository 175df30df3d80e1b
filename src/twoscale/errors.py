"""Exception types shared across the toolkit."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class OutOfDomainError(ValueError):
    """A query point lies outside the grid's domain."""


class AssemblyError(RuntimeError):
    """Non-finite data encountered while assembling a linear system."""


class CompatibilityError(ValueError):
    """Right-hand side of a pure-periodic problem does not annihilate constants."""


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the final residual (or increment) and the history so callers can
    report or adapt (e.g. restart a Newton solve from a better state).
    """

    def __init__(self, message, residual=None, iterations=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.history = list(history) if history is not None else []


class PropertyViolationError(RuntimeError):
    """A hard mathematical invariant (bounds, symmetry, mean-zero) failed."""
