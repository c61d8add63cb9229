"""Hard-thresholding estimation for k-sparse linear regression.

The vector analogue of the matrix routine: backproject the residual through a
decorrelator V (so that V X^T X / n is close to the identity), hard-threshold
entrywise, and shrink the threshold geometrically. The contraction factor is
2 r_K, where r_K measures how far V Sigma_hat is from the identity when probed
by K-sparse sign vectors; the whole scheme only makes sense when 2 r_K < 1.
De-sparsifying the result by one more unthresholded backprojection yields
coordinatewise confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import check_array, check_float, check_int, read_only
from ._rng import make_rng
from .inference import EntrywiseResult, _two_sided_quantile
from .linalg import hard_threshold_entries

__all__ = [
    "AssumptionViolationError",
    "SparseInstance",
    "SparseConfig",
    "Decorrelator",
    "build_decorrelator",
    "largest_feasible_k",
    "sparse_iht_run",
    "sparse_confidence_intervals",
    "gen_sparse_instance",
]


class AssumptionViolationError(RuntimeError):
    """The certificate 2 r_K < 1 fails (as a NaN r_K does): thresholds would grow."""


class RowProgramInfeasibleError(ValueError):
    def __init__(self, row: int, smallest_feasible_mu: float):
        self.row = row
        self.smallest_feasible_mu = smallest_feasible_mu
        super().__init__(
            f"row program infeasible at row {row}; smallest feasible mu "
            f"found by bisection: {smallest_feasible_mu:.6g}")


@dataclass(frozen=True, eq=False)
class SparseInstance:
    """Design (n, p >= 1), response and for simulations the truth, all read-only."""

    x: np.ndarray
    y: np.ndarray
    theta_truth: np.ndarray | None = None
    realized_noise: np.ndarray | None = None

    def __post_init__(self):
        x = check_array(self.x, "x", (None, None))
        if x.size == 0:
            raise ValueError(f"x must not be empty, got shape {x.shape}")
        y = check_array(self.y, "y", x.shape[:1])
        object.__setattr__(self, "x", read_only(x))
        object.__setattr__(self, "y", read_only(y))
        for name, length in (("theta_truth", x.shape[1]), ("realized_noise", x.shape[0])):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, read_only(check_array(value, name, (length,))))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SparseConfig:
    """t0 seeds the threshold recursion (None picks a data-driven scale),
    k_cap is the sparsity level K certified against (None picks the largest
    feasible one), upsilon overrides the noise floor (None computes
    2 sqrt(M log(p/delta) / n) with delta = 0.05, the failure probability
    every run has used; no run sets another, so it is not a knob)."""

    t0: float | None = None
    k_cap: int | None = None
    upsilon: float | None = None

    def __post_init__(self):
        for name in ("t0", "upsilon"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check_float(value, name))
        if self.k_cap is not None:
            object.__setattr__(self, "k_cap", check_int(self.k_cap, "k_cap"))


def _top_k_row_sum(absm: np.ndarray, k: int) -> float:
    """Largest sum of the k largest entries of a row of the (p, p) |M|."""
    p = absm.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}")
    top = np.partition(absm, p - k, axis=1)[:, p - k:] if k < p else absm
    return float(top.sum(axis=1).max())


@dataclass(frozen=True, eq=False)
class Decorrelator:
    """A (p, p) V with p >= 1 together with the covariance it was certified
    against.

    V, Sigma and what is derived from them, |V Sigma - I| and vsv_diag (each
    formed on first use), are read-only (``_checks.read_only``), so the
    holder keeps nothing a caller can write. r_k(k) partitions the one
    |V Sigma - I| on each call. When V is the identity, ``apply``,
    ``vsv_diag`` and r_k skip the products with it and return the same bits.
    """

    v: np.ndarray
    sigma_hat: np.ndarray

    def __post_init__(self):
        v = check_array(self.v, "v", (None, None))
        if v.shape[0] != v.shape[1]:
            raise ValueError(f"v must be square, got shape {v.shape}")
        if v.size == 0:
            raise ValueError(f"v must not be empty, got shape {v.shape}")
        sigma_hat = check_array(self.sigma_hat, "sigma_hat", v.shape)
        object.__setattr__(self, "v", read_only(v))
        object.__setattr__(self, "sigma_hat", read_only(sigma_hat))

    @property
    def p(self) -> int:
        return self.v.shape[0]

    @cached_property
    def _is_identity(self) -> bool:
        return np.array_equal(self.v, np.eye(self.p))

    def apply(self, m: np.ndarray) -> np.ndarray:
        """V @ m, C-ordered. For V = I this is a copy of m plus 0.0, which
        turns -0.0 into +0.0 as the zero terms of np.eye(p) @ m do."""
        if self._is_identity:
            return np.add(m, 0.0, order="C")
        return self.v @ m

    @cached_property
    def vsv_diag(self) -> np.ndarray:
        """diag(V Sigma V^T), computed once: the noise floor and every
        interval half-width read it."""
        if self._is_identity:
            return read_only(np.diag(self.sigma_hat))
        return read_only(np.einsum("ij,jk,ik->i", self.v, self.sigma_hat, self.v))

    @cached_property
    def _abs_gap(self) -> np.ndarray:
        return read_only(np.abs(self.apply(self.sigma_hat) - np.eye(self.p)))

    def r_k(self, k: int) -> float:
        return _top_k_row_sum(self._abs_gap, k)


def _soft(z: float, t: float) -> float:
    return math.copysign(max(abs(z) - t, 0.0), z)


def _solve_row(sigma_hat: np.ndarray, j: int, mu: float, tol: float = 1e-6):
    """Coordinate descent for min (1/2) v' Sigma v - v_j + mu ||v||_1.

    Any stationary point satisfies ||Sigma v - e_j||_inf <= mu, which is the
    feasibility the decorrelator needs. Returns None when the cap of 10 p^2
    coordinate updates runs out before the stationarity residual drops below
    tol, or when the iterates blow up (the objective is unbounded below for
    mu too small when Sigma is singular).
    """
    p = sigma_hat.shape[0]
    v = np.zeros(p)
    g = -np.eye(p)[j]  # gradient of the smooth part, Sigma v - e_j
    diag = np.diag(sigma_hat).copy()
    if np.any(diag <= 0):
        raise ValueError("Sigma must have positive diagonal for the row program")
    max_updates = 10 * p * p
    updates = 0
    while updates < max_updates:
        delta_max = 0.0
        for i in range(p):
            vi_new = _soft(diag[i] * v[i] - g[i], mu) / diag[i]
            step = vi_new - v[i]
            if step != 0.0:
                g += sigma_hat[:, i] * step
                v[i] = vi_new
                delta_max = max(delta_max, abs(step))
            updates += 1
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > 1e8:
            return None
        if delta_max <= tol * max(1.0, np.max(np.abs(v))):
            resid = np.where(v != 0.0, np.abs(g + mu * np.sign(v)),
                             np.maximum(np.abs(g) - mu, 0.0))
            if resid.max() <= 10 * tol:
                return v
    return None


def _smallest_feasible_mu(sigma_hat: np.ndarray, j: int, mu_lo: float) -> float:
    lo, hi = mu_lo, 1.0
    if _solve_row(sigma_hat, j, hi) is None:
        return math.inf
    for _ in range(30):
        mid = (lo + hi) / 2.0
        if _solve_row(sigma_hat, j, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def build_decorrelator(x: np.ndarray, strategy: str = "identity",
                       mu: float | None = None) -> Decorrelator:
    """Identity V, or one l1-minimizing row program per coordinate.

    Sigma is the empirical covariance X^T X / n of a finite X. The row
    program looks for v with small l1 norm satisfying
    ||Sigma v - e_j||_inf <= mu, for a positive mu that defaults to
    sqrt(log(p) / n); the identity reads no mu, so passing one is refused.
    """
    x = check_array(x, "x", (None, None))
    n, p = x.shape
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    sigma_hat = x.T @ x / n
    if strategy == "identity":
        if mu is not None:
            raise ValueError("mu must be left unset: the identity strategy reads none")
        return Decorrelator(v=np.eye(p), sigma_hat=sigma_hat)
    if strategy == "row_program":
        mu = math.sqrt(math.log(p) / n) if mu is None else check_float(mu, "mu", strict=True)
        rows = []
        for j in range(p):
            v_row = _solve_row(sigma_hat, j, mu)
            if v_row is None:
                raise RowProgramInfeasibleError(j, _smallest_feasible_mu(sigma_hat, j, mu))
            rows.append(v_row)
        return Decorrelator(v=np.array(rows), sigma_hat=sigma_hat)
    raise ValueError(f"unknown strategy {strategy!r}")


def largest_feasible_k(dec: Decorrelator, k_max: int) -> int:
    """Largest K <= k_max with 2 r_K < 1, by bisection (r_k is nondecreasing).

    On moderate sample sizes the certificate often fails at K = 2k even
    though it holds at smaller K; running with the largest certified level
    keeps the contraction argument honest.
    """
    lo, hi = 1, min(check_int(k_max, "k_max"), dec.p)
    if not 2.0 * dec.r_k(lo) < 1.0:
        raise AssumptionViolationError(
            f"2 r_K >= 1 for every K <= {k_max}: r_1 = {dec.r_k(1):.4f}")
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if 2.0 * dec.r_k(mid) < 1.0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _upsilon(dec: Decorrelator, n: int) -> float:
    m_big = float(dec.vsv_diag.max())
    return 2.0 * math.sqrt(m_big * math.log(dec.p / 0.05) / n)


def sparse_iht_run(instance: SparseInstance, dec: Decorrelator,
                   config: SparseConfig = SparseConfig()):
    """Fixed-count thresholded backprojection; returns (theta_hat, thresholds).

    Runs ceil(log n / log(1 / 2 r_K)) iterations of
        alpha_r = threshold((1/n) V X^T (Y - X theta), T_r),
        theta += alpha_r,  T_r = 2 r_K T_{r-1} + upsilon,
    seeded at T_0. A zero r_K (orthogonal designs) collapses to a single
    exact-recovery iteration. ``thresholds`` is a float64 array holding
    T_1, ..., T_R, one entry per iteration, so its length is the iteration
    count.

    While T_r exceeds every |backprojected entry| nothing survives the
    threshold, so theta and the backprojection stay as they are; the
    backprojection is recomputed only after an iteration in which some entry
    survived.
    """
    _check_decorrelator(dec, instance)
    n, p = instance.n, instance.p
    k_cap = config.k_cap if config.k_cap is not None else largest_feasible_k(dec, p)
    r_k = dec.r_k(k_cap)
    gamma = 2.0 * r_k
    if not gamma < 1.0:
        raise AssumptionViolationError(
            f"2 r_K = {gamma:.4f} >= 1 at K = {k_cap}; no contraction")
    ups = config.upsilon if config.upsilon is not None else _upsilon(dec, n)
    if config.t0 is not None:
        t = config.t0
    else:
        t = float(np.max(np.abs(dec.apply(instance.x.T @ instance.y) / n))) + 2.0 * ups
    iters = 1 if gamma == 0.0 else max(1, math.ceil(math.log(n) / math.log(1.0 / gamma)))
    theta = np.zeros(p)
    thresholds = np.empty(iters)
    vxt = dec.apply(instance.x.T)
    backproj = None
    for r in range(iters):
        t = gamma * t + ups
        thresholds[r] = t
        if backproj is None:
            backproj = vxt @ (instance.y - instance.x @ theta) / n
            backproj_max = float(np.max(np.abs(backproj)))
        if t <= backproj_max:
            theta = theta + hard_threshold_entries(backproj, t)
            backproj = None
    return theta, thresholds


def _check_decorrelator(dec: Decorrelator, instance: SparseInstance) -> None:
    if dec.p != instance.p:
        raise ValueError(
            f"decorrelator has p={dec.p} but the instance has p={instance.p}")


def sparse_confidence_intervals(theta_r: np.ndarray, instance: SparseInstance,
                                dec: Decorrelator, *, sigma: float | None = None,
                                level: float = 0.95) -> EntrywiseResult:
    """Desparsify theta_r by one unthresholded correction
    theta_r + (1/n) V X^T (Y - X theta_r) and attach half-widths
    sigma * sqrt((V Sigma V^T)_jj / n) * z_{(1+level)/2}. The residual
    Y - X theta_r is formed once; it also gives the default sigma
    ||Y - X theta_r||_2 / sqrt(n)."""
    _check_decorrelator(dec, instance)
    theta_r = check_array(theta_r, "estimate", (instance.p,))
    resid = instance.y - instance.x @ theta_r
    if sigma is None:
        sigma = float(np.linalg.norm(resid) / math.sqrt(instance.n))
    level, sigma, z = _two_sided_quantile(level, sigma)
    half = sigma * np.sqrt(dec.vsv_diag / instance.n) * z
    estimate = theta_r + dec.apply(instance.x.T @ resid) / instance.n
    return EntrywiseResult(estimate=estimate, half_width=half, sigma=sigma, level=level)


def gen_sparse_instance(n: int, p: int, k: int, noise_std: float, seed) -> SparseInstance:
    """Gaussian design, k random coordinates with amplitudes uniform in
    [1, 3] and random signs, Gaussian noise."""
    n, p, k = check_int(n, "n"), check_int(p, "p", None), check_int(k, "k", None)
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}")
    noise_std = check_float(noise_std, "noise_std")
    rng = make_rng(seed)
    x = rng.standard_normal((n, p))
    support = rng.choice(p, size=k, replace=False)
    theta = np.zeros(p)
    theta[support] = rng.uniform(1.0, 3.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    eps = rng.standard_normal(n) * noise_std
    return SparseInstance(x=x, y=x @ theta + eps, theta_truth=theta,
                          realized_noise=eps)
