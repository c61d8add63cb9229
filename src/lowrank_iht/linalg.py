"""Dense matrix primitives: canonical SVD, hard thresholding, norms.

Everything here is deterministic. The SVD wrapper fixes the phase ambiguity of
each singular triplet so repeated calls on equal inputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_array, check_float, read_only

__all__ = [
    "SvdConvergenceError",
    "SvdFactors",
    "svd",
    "hard_threshold_entries",
    "hard_threshold_singular",
    "entrywise_inf_norm",
]


class SvdConvergenceError(RuntimeError):
    """The underlying LAPACK SVD routine failed to converge."""


def _as_matrix(a) -> np.ndarray:
    a = check_array(a, "a", (None, None), dtype=None)
    if a.size == 0:
        raise ValueError("empty matrices are not supported")
    return a


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD factors with a fixed sign/phase convention.

    ``left`` and ``right`` have orthonormal columns, ``singular_values`` is
    nonincreasing, and ``left @ diag(singular_values) @ right.conj().T``
    reconstructs the input. The three arrays are read-only
    (``_checks.read_only``).
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "singular_values", "right"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T

    def rank(self) -> int:
        return int(np.count_nonzero(self.singular_values > 0.0))


def svd(a) -> SvdFactors:
    """Thin SVD with deterministic factors.

    The phase of each singular triplet is rotated so the largest-modulus entry
    of the left singular vector is real and positive (ties broken by lowest
    index).
    """
    a = _as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge for shape {a.shape}") from exc
    v = vh.conj().T.copy()
    # every column of u is a unit vector, so its pivot is nonzero
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(s.size)]
    if np.iscomplexobj(pivot):
        # hypot, like abs() of a complex scalar; numpy's vectorised complex
        # abs rounds differently and would change the phases in the last bit
        phase = np.conj(pivot / np.hypot(pivot.real, pivot.imag))
    else:
        # a real pivot over its modulus is exactly its sign
        phase = np.sign(pivot)
    u *= phase
    v *= phase
    return SvdFactors(left=u, singular_values=s, right=v)


def _singular_values(a) -> np.ndarray:
    try:
        return np.linalg.svd(_as_matrix(a), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError("singular value computation did not converge") from exc


def hard_threshold_entries(u, threshold: float):
    """Zero out entries with modulus strictly below ``threshold``.

    The comparison is closed: entries with ``|u_i| >= threshold`` survive.
    Works elementwise on finite arrays of any shape.
    """
    threshold = check_float(threshold, "threshold")
    u = check_array(u, "u", None, dtype=None)
    return np.where(np.abs(u) >= threshold, u, np.zeros((), dtype=u.dtype))


def hard_threshold_singular(a, threshold: float) -> SvdFactors:
    """Spectral hard thresholding: keep singular values >= ``threshold``.

    Returns the canonical factors of ``a`` with the dropped singular values
    set to zero; ``.reconstruct()`` is the thresholded matrix and ``.rank()``
    the count of singular values at or above the threshold.
    """
    threshold = check_float(threshold, "threshold")
    f = svd(a)
    kept = np.where(f.singular_values >= threshold, f.singular_values, 0.0)
    return SvdFactors(left=f.left, singular_values=kept, right=f.right)


def entrywise_inf_norm(a) -> float:
    """Largest entry modulus."""
    return float(np.max(np.abs(_as_matrix(a))))
