"""Exception hierarchy shared across the package.

Everything raised deliberately by meanlab derives from MeanlabError, so
callers can catch one base class at an API boundary.  Numeric kernels never
raise; they signal trouble with NaN or status codes and the Python wrappers
translate those into the exceptions below.
"""


class MeanlabError(Exception):
    """Base class for all errors raised by meanlab."""


class DomainError(MeanlabError):
    """A point lies outside the interval a function is defined on."""


class EvalError(MeanlabError):
    """Evaluation produced a non-finite value (log of a non-positive
    number, division by zero, overflow, and similar)."""


class RangeError(MeanlabError):
    """An inversion target is not bracketed by the function's values at
    the ends of the bracket it is solved on."""


class ConvergenceError(MeanlabError):
    """An iteration exhausted its budget before reaching tolerance.

    When raised by Gauss iteration the partial trace is attached as
    ``trace`` so callers can inspect how far the iteration got.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ParseError(MeanlabError):
    """Expression text could not be parsed.  ``position`` is the 0-based
    offset into the input at which the problem was detected."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class MonotonicityError(MeanlabError):
    """A function failed the strictly-increasing grid check.  Carries the
    offending report as ``report``."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateError(MeanlabError):
    """An affine fit was requested against a numerically constant base
    function, so the coefficients are not identifiable."""


class UsageError(MeanlabError):
    """Command-line arguments are structurally invalid (bad interval
    syntax, wrong argument count, unknown names)."""
