"""Exception types and argument checks shared across the package.

All input-shaped failures derive from ValueError so callers can catch one
base class; the CLI maps them to exit code 2. InvariantError signals an
internal inconsistency (a bug), never bad user input.
"""

import math
import numbers


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
    """value as an int if it is an integer of at least minimum, else
    InputError. A numpy int is an integer, as in instances._vertex_id; a
    bool is none."""
    bound = "" if minimum is None else f" >= {minimum}"
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or bound and value < minimum):
        raise InputError(f"{name} must be an int{bound}, got {value!r}")
    return int(value)


def _label(key) -> str:
    """A key as written in a message: a tuple key k1,k2 as k1,k2."""
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def check_number(name: str, value, finite: bool = False) -> float:
    """value as a float if it is a real number (numpy's included), else
    InputError naming name. Bools and strings are no numbers, an int
    beyond the float range is refused too, and with finite so are NaN and
    the infinities."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} = {value!r} is not a number")
    try:
        v = float(value)
    except OverflowError:
        raise InputError(f"{name} is an int beyond the float range") from None
    if finite and not math.isfinite(v):
        raise InputError(f"{name} = {v} is not finite")
    return v


def check_numbers(name: str, values, finite: bool = False) -> list[float]:
    """check_number over the values of a dict or of any other iterable,
    naming name[key] (name[index]) of the first that fails; the values as
    a new list of floats, in order. A column of floats and ints takes one
    pass over the set of types and, with finite, one for finiteness; only
    a column that fails is checked value by value. InputError when values
    is not a collection."""
    try:
        col = list(values.values()) if isinstance(values, dict) else list(values)
    except TypeError:
        raise InputError(f"{name} must be a list of numbers, got {values!r}") from None
    types = set(map(type, col))
    if types <= {float, int}:
        try:
            floats = list(map(float, col)) if int in types else col
        except OverflowError:  # an int beyond the float range
            pass
        else:
            if not finite or all(map(math.isfinite, floats)):
                return floats
    keys = values.keys() if isinstance(values, dict) else range(len(col))
    return [check_number(f"{name}[{_label(key)}]", v, finite) for key, v in zip(keys, col)]
