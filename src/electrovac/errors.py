"""Exception types shared across the package."""


class ElectrovacError(Exception):
    """Base class for all package errors."""


class DomainError(ElectrovacError):
    """A radius or interval lies outside the valid domain of the data."""


class NumericsError(ElectrovacError):
    """A numerical procedure failed to deliver its accuracy contract."""


class ParameterError(ElectrovacError):
    """Invalid model parameters (non-positive mass, bad dimension, ...)."""


class DegeneracyError(ElectrovacError):
    """An operation required V != 0 but the potential is degenerate."""


# The largest n whose unit-sphere area 2 pi^(n/2) / Gamma(n/2) is a finite float.
MAX_DIMENSION = 343


def require_dimension(n):
    """ParameterError unless n is an integer from 3 to MAX_DIMENSION: of a
    type with __index__, as int and the numpy integers are and float is
    not; a bool is below 3. n is compared before any float conversion,
    which overflows for a huge int."""
    if not hasattr(type(n), "__index__") or n < 3:
        raise ParameterError(f"dimension must be an integer >= 3, got {n}")
    if n > MAX_DIMENSION:
        raise ParameterError(f"dimension must be at most {MAX_DIMENSION}, got {n}")


def as_float(value, what: str, error: type = ParameterError) -> float:
    """value as a float; error (ParameterError by default) for a str, bytes
    or bytearray, which float() would parse, and where the conversion
    overflows, as for an int beyond the float range, which float() and
    math.isfinite reject with a bare OverflowError."""
    if isinstance(value, (str, bytes, bytearray)):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None
