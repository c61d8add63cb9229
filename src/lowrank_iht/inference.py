"""Debiased estimation and entrywise confidence intervals.

The thresholded estimate is biased toward low rank; adding one more
backprojection of its residual removes the shrinkage to first order:

    theta_debiased = theta_hat + adjoint(y - X(theta_hat)).

Around the truth this splits exactly into a deterministic remainder plus the
backprojected noise, and the entrywise standard error is estimated from the
column-energy profile of the design itself, so no distributional knowledge
beyond the residual scale is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ndtri import ndtri
from .iht import IhtState, empirical_sigma
from .trace_model import DesignBatch, adjoint_apply, apply_design, _obs_values

__all__ = [
    "debias",
    "entry_scale_matrix",
    "EntrywiseResult",
    "confidence_intervals",
    "decomposition_terms",
]


def debias(batch: DesignBatch, y, theta_hat: np.ndarray) -> np.ndarray:
    """One-step bias correction theta_hat + adjoint(y - X(theta_hat))."""
    values = _obs_values(y)
    resid = values - apply_design(batch, theta_hat)
    return theta_hat + adjoint_apply(batch, resid)


# Size of the |X^i|^2 temporary that entry_scale_matrix holds at a time.
_BLOCK_BYTES = 1 << 20


def entry_scale_matrix(batch: DesignBatch) -> np.ndarray:
    """Entrywise design energies Sigma_{m,m'} = sqrt(mean_i |X^i_{m,m'}|^2).

    For standard Gaussian designs every entry concentrates at 1.

    The squared moduli are summed over blocks of rows of about 1 MiB, so the
    call allocates O(block) on top of the design instead of a copy of it.
    Each block's reduction starts from the running sum, which keeps numpy's
    sequential row order: the result is bitwise equal to
    ``np.sqrt(np.mean(np.abs(X) ** 2, axis=0))``.
    """
    x = batch.matrices
    rows = max(1, _BLOCK_BYTES // (batch.dim * batch.dim * x.real.itemsize))
    buf = np.empty((min(rows, batch.n),) + x.shape[1:], dtype=x.real.dtype)
    total = None
    for start in range(0, batch.n, rows):
        chunk = x[start:start + rows]
        block = np.abs(chunk, out=buf[:chunk.shape[0]])
        np.square(block, out=block)
        if total is not None:
            block[0] += total
        total = np.add.reduce(block, axis=0)
    return np.sqrt(total / batch.n)


@dataclass(frozen=True)
class EntrywiseResult:
    """Debiased point estimate with per-entry interval half-widths, for the
    matrix estimator and for the sparse one's coordinates.

    For complex estimates the real and imaginary parts get separate intervals
    sharing the same half-width; covers() checks each part separately and
    reports an entry covered only when both are.
    """

    estimate: np.ndarray
    half_width: np.ndarray
    sigma: float
    level: float
    quantile: float

    @property
    def lower(self) -> np.ndarray:
        return self.estimate.real - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.estimate.real + self.half_width

    def covers(self, truth: np.ndarray) -> np.ndarray:
        truth = np.asarray(truth)
        if truth.shape != self.estimate.shape:
            raise ValueError("truth shape does not match estimate")
        re_ok = np.abs(self.estimate.real - truth.real) <= self.half_width
        if np.iscomplexobj(self.estimate) or np.iscomplexobj(truth):
            im_ok = np.abs(np.imag(self.estimate) - np.imag(truth)) <= self.half_width
            return re_ok & im_ok
        return re_ok

    def coverage_rate(self, truth: np.ndarray) -> float:
        return float(np.mean(self.covers(truth)))


def confidence_intervals(batch: DesignBatch, y, theta_hat: np.ndarray,
                         sigma: float | None = None, level: float = 0.95,
                         two_sided_correct: bool = False,
                         state: IhtState | None = None) -> EntrywiseResult:
    """Debias theta_hat and attach entrywise intervals with half-widths
    sigma * Sigma_{m,m'} * q / sqrt(n).

    sigma defaults to the last recorded iteration sigma when a state is
    given (the scale the stopping rule actually certified), else to the
    residual scale at theta_hat.

    The default quantile is q = z_level, which for a two-sided interval at
    level 0.95 actually delivers nominal 90% coverage; pass
    two_sided_correct=True for q = z_{(1+level)/2} if the stated level should
    be the two-sided one.
    """
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    if sigma is None:
        sigma = state.final_sigma if state is not None and state.trace \
            else empirical_sigma(batch, y, theta_hat)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    q = ndtri((1.0 + level) / 2.0) if two_sided_correct else ndtri(level)
    half = sigma * entry_scale_matrix(batch) * q / np.sqrt(batch.n)
    return EntrywiseResult(estimate=debias(batch, y, theta_hat), half_width=half,
                           sigma=sigma, level=level, quantile=q)


def decomposition_terms(batch: DesignBatch, y, theta_hat: np.ndarray,
                        theta_true: np.ndarray, noise: np.ndarray):
    """Split sqrt(n) (theta_debiased - theta_true) into (remainder, noise term).

    The noise term is sqrt(n) * adjoint(eps); the remainder is
    sqrt(n) * [(theta_hat - theta_true) - adjoint(X(theta_hat - theta_true))].
    Their sum reproduces the debiased error exactly (up to floating point),
    which the estimator's tests pin down.
    """
    values = _obs_values(y)
    root_n = np.sqrt(batch.n)
    diff = theta_hat - theta_true
    remainder = root_n * (diff - adjoint_apply(batch, apply_design(batch, diff)))
    noise_term = root_n * adjoint_apply(batch, np.asarray(noise, dtype=np.float64))
    total = root_n * (debias(batch, values, theta_hat) - theta_true)
    return remainder, noise_term, total
