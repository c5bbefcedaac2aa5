"""Exception hierarchy shared across the package."""


class PerfscoreError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(PerfscoreError, ValueError):
    """Malformed or out-of-contract input (wrong shape, non-finite, bad range)."""


class DomainError(PerfscoreError, ValueError):
    """Input is structurally valid but outside the mathematical domain
    of the operation (e.g. logit of a boundary probability)."""


class IterationLimitError(PerfscoreError, RuntimeError):
    """An iterative method hit its iteration cap before meeting tolerance.

    Carries the best iterate found so far in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
