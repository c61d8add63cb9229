"""Validation of integer, float and array arguments: the one place that
decides a number's type, range and NaN handling, and an array's precision
(float64, complex128 or int64), shape and finiteness. Refusals read ``<name>
must be in [low, high), got <value>``, ``must have shape (4000,), got (3,)``,
``must be finite`` or ``must hold numbers, got dtype <U3`` (or ``integers``,
or ``got a ragged sequence``) wherever they are raised. Every array a holder
keeps, or derives from what it keeps, is made read-only by ``read_only``."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

__all__ = ["as_numbers", "check_array", "check_float", "check_int", "read_only"]


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


def as_numbers(value, name: str, dtype=np.float64) -> np.ndarray:
    """``value`` as an array of ``dtype``; ``dtype=None`` gives complex128
    for complex numbers and float64 for any other, whatever their precision.

    Strings, objects, bools and ragged sequences are refused rather than
    parsed or read as 0 and 1, complex numbers where ``dtype`` is real, and
    floats where it is an integer type rather than truncated. Shape and
    finiteness are left to ``check_array``.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValueError(f"{name} must hold numbers, got a ragged sequence") from None
    kind = arr.dtype.kind
    if kind not in "iufc" or (kind == "c" and dtype is not None and np.dtype(dtype).kind != "c"):
        raise ValueError(f"{name} must hold {'real ' if kind == 'c' else ''}numbers, "
                         f"got dtype {arr.dtype}")
    if kind == "f" and np.dtype(dtype).kind == "i":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    if dtype is None:
        dtype = np.complex128 if kind == "c" else np.float64
    return np.asarray(arr, dtype=dtype)


def check_array(value, name: str, shape, dtype=np.float64) -> np.ndarray:
    """``value`` as a finite array of ``shape`` and of ``dtype`` (``None``:
    float64, or complex128 if complex), raising ValueError otherwise.

    A ``None`` entry of ``shape`` matches any length, and ``shape=None`` any
    shape. An array that already fits comes back as the same object.
    """
    arr = as_numbers(value, name, dtype)
    if shape is not None and (arr.ndim != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, arr.shape))):
        want = ", ".join("*" if s is None else str(s) for s in shape)
        want += "," if len(shape) == 1 else ""
        raise ValueError(f"{name} must have shape ({want}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only: held as it is if it owns its data (so the
    caller's array becomes read-only), copied once if it is a view."""
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr
