"""Exception hierarchy shared by all modules."""


class PLMError(Exception):
    """Base class for every error raised by plmanifold."""


class InvalidPointError(PLMError):
    """A coordinate vector violates the manifold's point invariants."""


class EmptyWindowError(PLMError):
    """No sample point received positive kernel weight at a query point.

    ``nearest_distance`` carries the smallest query-to-sample distance so
    callers can enlarge the bandwidth; ``indices`` lists the offending
    query positions when the error comes from a batched smoothing call.
    """

    def __init__(self, message, nearest_distance=None, indices=None):
        super().__init__(message)
        self.nearest_distance = nearest_distance
        self.indices = indices


class ConvergenceError(PLMError):
    """An iterative solver ran out of iterations."""

    def __init__(self, message, last_iterate=None, residual=None, indices=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.indices = indices


class DegenerateScaleError(PLMError):
    """A robust scale estimate collapsed to zero."""


class DegenerateTestError(PLMError):
    """A test statistic is undefined because its standard error is zero."""


class SingularDesignError(PLMError):
    """The regression design matrix is rank deficient."""


class SingularMatrixError(PLMError):
    """A matrix that must be inverted is numerically singular."""


class InfeasibleGridError(PLMError):
    """No bandwidth in the candidate grid produced a usable fit."""

    def __init__(self, message, reasons=None):
        super().__init__(message)
        self.reasons = reasons or {}


class CampaignError(PLMError):
    """Too many Monte Carlo replications failed."""


class ConfigError(PLMError, ValueError):
    """User-supplied configuration is invalid (also a ValueError)."""


class InsufficientDataError(ConfigError):
    """Fewer usable rows than the model requires."""
