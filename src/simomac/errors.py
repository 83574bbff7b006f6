"""Exception types shared across the package, and its integer-count and
real-parameter checks."""

import math
import numbers
import operator
import sys


class SimomacError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(SimomacError):
    """An input is structurally unusable (e.g. zero vector where a direction is needed)."""


class InvalidParam(SimomacError):
    """A scalar or shape parameter is out of range."""


def counts(what, *values, least=1):
    """``values`` as ints; raises InvalidParam, naming them ``what``,
    unless each is an integer (``operator.index``) >= ``least``."""
    try:
        values = [operator.index(k) for k in values]
    except TypeError:
        raise InvalidParam(f"{what} must be integers") from None
    if min(values) < least:
        raise InvalidParam(f"{what} must be >= {least}")
    return values


def real(rule, value, above=-math.inf, least=-sys.float_info.max, most=sys.float_info.max):
    """Raises InvalidParam(f"{rule}, got {value}") unless ``value`` is a
    real number (``numbers.Real``: no string, complex or array) with
    value > ``above`` and ``least`` <= value <= ``most``.  The default
    range is that of the finite floats, so NaN, the infinities and an int
    past the float range fail it."""
    if not (isinstance(value, numbers.Real) and value > above and least <= value <= most):
        raise InvalidParam(f"{rule}, got {value}")


class SingularPoint(SimomacError):
    """Density evaluation requested at a singular point."""


class InvalidRegime(SimomacError):
    """Parameter fitting attempted outside its valid regime (e.g. mean power <= 1)."""


class RegimeUnsupported(SimomacError):
    """An operation was called with an unsupported (T, N) regime."""


class RegimeWarning(UserWarning):
    """The requested objective/regime pairing is valid but known to be non-tight."""
