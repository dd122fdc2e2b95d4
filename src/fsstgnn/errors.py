"""Exception hierarchy shared by all fsstgnn modules.

Exit-code mapping used by the CLI: usage/configuration problems are
``ParameterError`` (exit 1), data problems are ``DataError``/``ParseError``/
``RangeError`` (exit 2), numerical failures are ``DefinitenessError``/
``ConvergenceError``/``NumericError`` (exit 3).
"""


class FsstgnnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FsstgnnError):
    """Array has the wrong shape, or required symmetry is violated."""


class RangeError(FsstgnnError):
    """An index window falls outside the data it addresses."""


class ParameterError(FsstgnnError):
    """A configuration value violates its contract."""


class DataError(FsstgnnError):
    """Input data is structurally invalid (gaps, short folds, ...)."""


class ParseError(DataError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DefinitenessError(FsstgnnError):
    """Cholesky factorization failed; carries the failing pivot index."""

    def __init__(self, message, pivot=None, value=None):
        super().__init__(message)
        self.pivot = pivot
        self.value = value


class ConvergenceError(FsstgnnError):
    """An iterative solver hit its sweep limit; carries the duality gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class NumericError(FsstgnnError):
    """A non-finite value appeared where a finite one is required."""


class TapeError(FsstgnnError):
    """Invalid use of the autodiff tape (e.g. backward on a detached tensor)."""
