"""Exception hierarchy shared across the toolkit.

DataError covers malformed or inconsistent inputs (bad files, dimension
mismatches, violated invariants); NumericalError covers failures that occur
with well-formed inputs (solver divergence, NaN parameters). The CLI maps
these onto exit codes 2 and 3 respectively.
"""
from numbers import Integral, Real


class DexError(Exception):
    """Base class for all toolkit errors."""


class DataError(DexError, ValueError):
    """Malformed or inconsistent input data."""


class DescriptionError(DataError):
    """Invalid robot description document."""

    def __init__(self, message: str, element: str | None = None):
        self.element = element
        if element is not None:
            message = f"{message} (element: {element})"
        super().__init__(message)


class StreamFormatError(DataError):
    """Invalid hand-pose stream file."""


class DemoFormatError(DataError):
    """Invalid demonstration file."""


class NumericalError(DexError, RuntimeError):
    """Numerical failure on otherwise valid input."""


def check_number_fields(config, reals=(), integers=()):
    """Raise DataError unless each named attribute of config holds a real
    number (`reals`) or an integer (`integers`); booleans count as neither."""
    for names, kind, what in ((reals, Real, "a number"), (integers, Integral, "an integer")):
        for name in names:
            value = getattr(config, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise DataError(f"{name} must be {what}, got {value!r}")
