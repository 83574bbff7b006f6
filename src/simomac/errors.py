"""Exception types shared across the package, and its integer-count check."""

import operator


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


class SingularPoint(SimomacError):
    """Density evaluation requested at a singular point."""


class InvalidRegime(SimomacError):
    """Parameter fitting attempted outside its valid regime (e.g. mean power <= 1)."""


class RegimeUnsupported(SimomacError):
    """An operation was called with an unsupported (T, N) regime."""


class RegimeWarning(UserWarning):
    """The requested objective/regime pairing is valid but known to be non-tight."""
