"""Validation of integer and float configuration fields."""

from __future__ import annotations

import numbers
import operator

__all__ = ["check_float", "check_int"]


def check_int(value, name: str, low: int | None = 1, high: int | None = None,
              error: type[ValueError] = ValueError) -> int:
    """``value`` as an int in [low, high), raising ``error`` otherwise.

    Anything that is not an integer is refused rather than truncated: floats,
    strings and bools (which Python counts as ints) all raise. ``low=None``
    checks the type alone, for a caller whose own range check names a bound
    that depends on another argument.
    """
    if isinstance(value, bool):
        raise error(f"{name} must be an integer, not a boolean")
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if (low is not None and value < low) or (high is not None and value >= high):
        bounds = f"at least {low}" if high is None else f"in [{low}, {high})"
        raise error(f"{name} must be {bounds}, got {value}")
    return value


def check_float(value, name: str, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float, raising ``error`` unless it is a real number.

    Strings are refused rather than parsed, and bools rather than read as 0
    and 1. Range checks are left to the caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    return float(value)
