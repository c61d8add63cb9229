"""Debiased estimation and entrywise confidence intervals.

The thresholded estimate is biased toward low rank; adding one more
backprojection of its residual removes the shrinkage to first order:

    theta_debiased = theta_hat + adjoint(y - X(theta_hat)).

Around the truth this splits exactly into a deterministic remainder plus the
backprojected noise, and the entrywise standard error is estimated from the
entry energies the design's batch summed when it was built, so no
distributional knowledge beyond the residual scale is needed. The design is
read only through ``trace_model``, never through its dense storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_array, check_float, read_only
from ._ndtri import ndtri
from .iht import IhtState
from .trace_model import DesignBatch, adjoint_apply, apply_design, _obs_values

__all__ = [
    "entry_scale_matrix",
    "EntrywiseResult",
    "confidence_intervals",
    "decomposition_terms",
]


def entry_scale_matrix(batch: DesignBatch) -> np.ndarray:
    """Entrywise design energies Sigma_{m,m'} = sqrt(mean_i |X^i_{m,m'}|^2).

    For standard Gaussian designs every entry concentrates at 1. Taken from
    the batch's sums, without reading the design; bitwise equal to
    ``np.sqrt(np.mean(np.abs(X) ** 2, axis=0))``.
    """
    return np.sqrt(batch.entry_energy / batch.n)


@dataclass(frozen=True, eq=False)
class EntrywiseResult:
    """Debiased point estimate with per-entry interval half-widths, for the
    matrix estimator and for the sparse one's coordinates.

    For complex estimates the real and imaginary parts get separate intervals
    sharing the same half-width; covers() checks each part separately and
    reports an entry covered only when both are. The result holds a finite
    estimate and real half-widths of its shape, both read-only, with sigma
    and level checked as the interval calls check them.
    """

    estimate: np.ndarray
    half_width: np.ndarray
    sigma: float
    level: float

    def __post_init__(self):
        estimate = check_array(self.estimate, "estimate", None, dtype=None)
        half_width = check_array(self.half_width, "half_width", estimate.shape)
        level, sigma, _ = _two_sided_quantile(self.level, self.sigma)
        object.__setattr__(self, "estimate", read_only(estimate))
        object.__setattr__(self, "half_width", read_only(half_width))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "level", level)

    @property
    def quantile(self) -> float:
        """The two-sided quantile z_{(1+level)/2} behind the half-widths."""
        return _two_sided_quantile(self.level, self.sigma)[2]

    @property
    def lower(self) -> np.ndarray:
        return self.estimate.real - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.estimate.real + self.half_width

    def covers(self, truth: np.ndarray) -> np.ndarray:
        truth = check_array(truth, "truth", self.estimate.shape, dtype=None)
        re_ok = np.abs(self.estimate.real - truth.real) <= self.half_width
        if np.iscomplexobj(self.estimate) or np.iscomplexobj(truth):
            im_ok = np.abs(np.imag(self.estimate) - np.imag(truth)) <= self.half_width
            return re_ok & im_ok
        return re_ok

    def coverage_rate(self, truth: np.ndarray) -> float:
        return float(np.mean(self.covers(truth)))


def _two_sided_quantile(level: float, sigma: float) -> tuple[float, float, float]:
    """``(level, sigma, q)``: level and the noise scale checked as floats, and
    the quantile q = z_{(1+level)/2} that gives two-sided coverage ``level``.
    Every interval in the package takes all three from here."""
    level = check_float(level, "level", 0.0, 1.0, strict=True)
    sigma = check_float(sigma, "sigma")
    return level, sigma, ndtri((1.0 + level) / 2.0)


def confidence_intervals(batch: DesignBatch, y, theta_hat: np.ndarray,
                         sigma: float | None = None, level: float = 0.95,
                         state: IhtState | None = None) -> EntrywiseResult:
    """Debias theta_hat and attach entrywise intervals with half-widths
    sigma * Sigma_{m,m'} * q / sqrt(n), where q = z_{(1+level)/2}.

    ``level`` is the two-sided coverage each interval aims at: the default
    0.95 gives q = 1.95996..., and level=0.90 gives q = z_0.95 = 1.64485...

    sigma defaults to the last recorded iteration sigma when a state is
    given (the scale the stopping rule actually certified), else to the
    residual scale ||y - X(theta_hat)||_2 / sqrt(n). The state is read for
    nothing else. Every call makes one forward and one adjoint pass: the
    residual is formed once and serves both the default sigma and debiasing.
    """
    theta_hat = check_array(theta_hat, "theta_hat", (batch.dim, batch.dim), dtype=None)
    resid = _obs_values(y, batch.n) - apply_design(batch, theta_hat)
    if sigma is None:
        sigma = (state.final_sigma if state is not None
                 else float(np.linalg.norm(resid) / np.sqrt(batch.n)))
    level, sigma, q = _two_sided_quantile(level, sigma)
    half = sigma * entry_scale_matrix(batch) * q / np.sqrt(batch.n)
    return EntrywiseResult(estimate=theta_hat + adjoint_apply(batch, resid),
                           half_width=half, sigma=sigma, level=level)


def decomposition_terms(batch: DesignBatch, y, theta_hat: np.ndarray,
                        theta_true: np.ndarray, noise: np.ndarray):
    """Split sqrt(n) (theta_debiased - theta_true) into (remainder, noise term).

    The noise term is sqrt(n) * adjoint(eps); the remainder is
    sqrt(n) * [(theta_hat - theta_true) - adjoint(X(theta_hat - theta_true))].
    Their sum reproduces the debiased error exactly (up to floating point),
    which the estimator's tests pin down. The debiased estimate in ``total``
    has the bits of ``confidence_intervals(batch, y, theta_hat).estimate``.
    """
    resid = _obs_values(y, batch.n) - apply_design(batch, theta_hat)
    root_n = np.sqrt(batch.n)
    diff = theta_hat - theta_true
    remainder = root_n * (diff - adjoint_apply(batch, apply_design(batch, diff)))
    noise_term = root_n * adjoint_apply(batch, noise)
    total = root_n * (theta_hat + adjoint_apply(batch, resid) - theta_true)
    return remainder, noise_term, total
