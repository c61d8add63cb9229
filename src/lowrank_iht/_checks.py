"""Validation of integer and float arguments: the one place that decides a
number's type, range, NaN handling and refusal message, which reads
``<name> must be in [low, high), got <value>`` wherever it is raised."""

from __future__ import annotations

import math
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


def check_float(value, name: str, low: float = 0.0, high: float = math.inf,
                error: type[ValueError] = ValueError, *, strict: bool = False) -> float:
    """``value`` as a float in [low, high), or in (low, high) when ``strict``,
    raising ``error`` otherwise.

    Any real number is taken, numpy scalars included; strings are refused
    rather than parsed, and bools rather than read as 0 and 1. The default
    [0, inf) admits every finite value >= 0, and NaN lies in no range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not ((low < value if strict else low <= value) and value < high):
        bounds = f"{'(' if strict else '['}{low:g}, {high:g})"
        raise error(f"{name} must be in {bounds}, got {value!r}")
    return value
