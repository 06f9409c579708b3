"""Exception hierarchy shared across the package."""


class ZetaError(Exception):
    """Base class for all numerical errors raised by this package."""


class DomainError(ZetaError):
    """Input lies outside the documented domain of an operation."""


class PoleError(ZetaError):
    """Evaluation requested too close to a pole.

    Carries the distance to the nearest pole when known.
    """

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


class DivergenceError(ZetaError):
    """A series that the operation relies on does not converge there."""


class IllConditionedError(ZetaError):
    """The requested evaluation sits in a numerically mixed regime.

    Raised instead of returning a silently inaccurate value; the caller
    should perturb the offending parameter.
    """


class TailBoundError(ZetaError):
    """A truncated sum's tail bound exceeds the precision budget."""


class InsufficientPrecisionError(ZetaError):
    """The working precision cannot resolve the target exponential.

    Carries the number of decimal digits that would suffice.
    """

    def __init__(self, message, required_digits=None):
        super().__init__(message)
        self.required_digits = required_digits


class ConvergenceError(ZetaError):
    """An iterative scheme failed to reach its residual target."""
