"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError -> 3.
"""
import numbers


class VampCFError(Exception):
    """Base class for package errors."""


class ShapeError(VampCFError):
    """Operands have incompatible dimensions."""


class ConfigError(VampCFError):
    """Invalid configuration or precondition violation."""


class DataError(VampCFError):
    """Malformed or unusable input data."""


class NumericalError(VampCFError):
    """Non-finite values where finite ones are required."""


def check_int(name, value, low):
    """``value`` as an ``int``, or a ``ConfigError`` unless it is an integer
    (a numpy one counts, a bool does not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)
