"""Exception types and argument checks shared across the package.

All input-shaped failures derive from ValueError so callers can catch one
base class; the CLI maps them to exit code 2. InvariantError signals an
internal inconsistency (a bug), never bad user input.
"""

import math


class InputError(ValueError):
    """An argument is malformed or out of its documented domain."""


class SizeError(InputError):
    """An exhaustive operation was asked to run above its size limit."""


class PreconditionError(InputError):
    """A documented caller obligation does not hold."""


class ParseError(InputError):
    """A file or spec string could not be parsed; message carries a location."""


class InvariantError(RuntimeError):
    """Internal state violates a structural invariant."""


def check_int(name: str, value, minimum: int | None = None) -> int:
    """value if it is an int (not a bool) of at least minimum, else InputError."""
    bound = "" if minimum is None else f" >= {minimum}"
    if isinstance(value, bool) or not isinstance(value, int) or bound and value < minimum:
        raise InputError(f"{name} must be an int{bound}, got {value!r}")
    return value


def check_tol(tol: float):
    """InputError unless tol is a finite number >= 0 (NaN refused)."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tolerance must be finite and >= 0, got {tol!r}")


def check_finite(name: str, items):
    """InputError naming the first (key, value) of items whose value is NaN
    or infinite; a tuple key is written k1,k2."""
    for key, value in items:
        if not math.isfinite(value):
            label = ",".join(map(str, key)) if isinstance(key, tuple) else key
            raise InputError(f"{name}[{label}] = {value} is not finite")
