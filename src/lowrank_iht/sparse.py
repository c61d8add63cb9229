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
from dataclasses import dataclass, field

import numpy as np

from ._ndtri import ndtri
from ._rng import make_rng
from .inference import EntrywiseResult
from .linalg import hard_threshold_entries

__all__ = [
    "AssumptionViolationError",
    "RowProgramInfeasibleError",
    "SparseInstance",
    "SparseConfig",
    "SparseIterationRecord",
    "Decorrelator",
    "empirical_covariance",
    "estimate_r_k",
    "build_decorrelator",
    "largest_feasible_k",
    "sparse_iht_run",
    "desparsify",
    "sparse_sigma",
    "sparse_confidence_intervals",
    "sparse_decomposition_terms",
    "gen_sparse_instance",
]


class AssumptionViolationError(RuntimeError):
    """The decorrelator certificate 2 r_K < 1 fails, so thresholds would grow."""


class RowProgramInfeasibleError(ValueError):
    def __init__(self, row: int, smallest_feasible_mu: float):
        self.row = row
        self.smallest_feasible_mu = smallest_feasible_mu
        super().__init__(
            f"row program infeasible at row {row}; smallest feasible mu "
            f"found by bisection: {smallest_feasible_mu:.6g}")


@dataclass(frozen=True)
class SparseInstance:
    """Design, response, and (for simulations) the generating truth."""

    x: np.ndarray
    y: np.ndarray
    theta_truth: np.ndarray | None = None
    realized_noise: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("need X of shape (n, p) and Y of shape (n,)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("design and response must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        for name, length in (("theta_truth", x.shape[1]), ("realized_noise", x.shape[0])):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=np.float64)
                if v.shape != (length,):
                    raise ValueError(f"{name} must have length {length}")
                object.__setattr__(self, name, v)

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
    2 sqrt(M log(p/delta) / n))."""

    t0: float | None = None
    k_cap: int | None = None
    delta: float = 0.05
    upsilon: float | None = None

    def __post_init__(self):
        if self.t0 is not None and not 0 <= self.t0 < math.inf:
            raise ValueError("t0 must be nonnegative and finite")
        if self.k_cap is not None and (isinstance(self.k_cap, bool) or self.k_cap < 1):
            raise ValueError("k_cap must be an integer of at least 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.upsilon is not None and not 0 <= self.upsilon < math.inf:
            raise ValueError("upsilon must be nonnegative and finite")


@dataclass(frozen=True)
class SparseIterationRecord:
    iteration: int
    threshold: float
    support_size: int


def empirical_covariance(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x.T @ x / x.shape[0]


def estimate_r_k(v: np.ndarray, sigma_hat: np.ndarray, k: int) -> float:
    """Exact sup over k-sparse sign vectors u of ||(V Sigma - I) u||_inf.

    The supremum is attained at u = +-1 on the k columns with the largest
    |entries| of some row of M = V Sigma - I, so it equals the max over rows
    of the sum of the k largest absolute entries.
    """
    v = np.asarray(v, dtype=np.float64)
    sigma_hat = np.asarray(sigma_hat, dtype=np.float64)
    p = sigma_hat.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}")
    m = v @ sigma_hat - np.eye(p)
    absm = np.abs(m)
    if k < p:
        top = np.partition(absm, p - k, axis=1)[:, p - k:]
    else:
        top = absm
    return float(top.sum(axis=1).max())


@dataclass(frozen=True)
class Decorrelator:
    """V together with the covariance it was certified against.

    certified_r caches exact r_k values; r_k() computes missing ones on
    demand (cached in place, values are pure functions of V and Sigma).
    """

    v: np.ndarray
    sigma_hat: np.ndarray
    construction: str
    mu: float | None = None
    certified_r: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        s = np.asarray(self.sigma_hat, dtype=np.float64)
        if v.shape != s.shape or v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("V and Sigma must be square with equal shapes")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma_hat", s)

    @property
    def p(self) -> int:
        return self.v.shape[0]

    def r_k(self, k: int) -> float:
        if k not in self.certified_r:
            self.certified_r[k] = estimate_r_k(self.v, self.sigma_hat, k)
        return self.certified_r[k]


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
                       mu: float | None = None, k_values=()) -> Decorrelator:
    """Identity V, or one l1-minimizing row program per coordinate.

    The row program looks for v with small l1 norm satisfying
    ||Sigma v - e_j||_inf <= mu; mu defaults to sqrt(log(p) / n).
    """
    x = np.asarray(x, dtype=np.float64)
    n, p = x.shape
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 and p >= 1")
    sigma_hat = empirical_covariance(x)
    if strategy == "identity":
        dec = Decorrelator(v=np.eye(p), sigma_hat=sigma_hat, construction="identity")
    elif strategy == "row_program":
        if mu is None:
            mu = math.sqrt(math.log(p) / n)
        rows = []
        for j in range(p):
            v_row = _solve_row(sigma_hat, j, mu)
            if v_row is None:
                raise RowProgramInfeasibleError(j, _smallest_feasible_mu(sigma_hat, j, mu))
            rows.append(v_row)
        dec = Decorrelator(v=np.array(rows), sigma_hat=sigma_hat,
                           construction="row_program", mu=mu)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    for k in k_values:
        dec.r_k(int(k))
    return dec


def largest_feasible_k(dec: Decorrelator, k_max: int) -> int:
    """Largest K <= k_max with 2 r_K < 1, by bisection (r_k is nondecreasing).

    On moderate sample sizes the certificate often fails at K = 2k even
    though it holds at smaller K; running with the largest certified level
    keeps the contraction argument honest.
    """
    lo, hi = 1, min(k_max, dec.p)
    if 2.0 * dec.r_k(lo) >= 1.0:
        raise AssumptionViolationError(
            f"2 r_K >= 1 for every K <= {k_max}: r_1 = {dec.r_k(1):.4f}")
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if 2.0 * dec.r_k(mid) < 1.0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _upsilon(dec: Decorrelator, n: int, delta: float) -> float:
    vsv_diag = np.einsum("ij,jk,ik->i", dec.v, dec.sigma_hat, dec.v)
    m_big = float(vsv_diag.max())
    return 2.0 * math.sqrt(m_big * math.log(dec.p / delta) / n)


def sparse_iht_run(instance: SparseInstance, dec: Decorrelator,
                   config: SparseConfig = SparseConfig()):
    """Fixed-count thresholded backprojection; returns (theta_hat, trace).

    Runs ceil(log n / log(1 / 2 r_K)) iterations of
        alpha_r = threshold((1/n) V X^T (Y - X theta), T_r),
        theta += alpha_r,  T_r = 2 r_K T_{r-1} + upsilon,
    seeded at T_0. A zero r_K (orthogonal designs) collapses to a single
    exact-recovery iteration.
    """
    n, p = instance.n, instance.p
    k_cap = config.k_cap if config.k_cap is not None else largest_feasible_k(dec, p)
    r_k = dec.r_k(k_cap)
    gamma = 2.0 * r_k
    if gamma >= 1.0:
        raise AssumptionViolationError(
            f"2 r_K = {gamma:.4f} >= 1 at K = {k_cap}; no contraction")
    ups = config.upsilon if config.upsilon is not None else _upsilon(dec, n, config.delta)
    if config.t0 is not None:
        t = config.t0
    else:
        t = float(np.max(np.abs(dec.v @ (instance.x.T @ instance.y) / n))) + 2.0 * ups
    iters = 1 if gamma == 0.0 else max(1, math.ceil(math.log(n) / math.log(1.0 / gamma)))
    theta = np.zeros(p)
    trace = []
    vxt = dec.v @ instance.x.T
    for r in range(1, iters + 1):
        t = gamma * t + ups
        alpha = hard_threshold_entries(vxt @ (instance.y - instance.x @ theta) / n, t)
        theta = theta + alpha
        trace.append(SparseIterationRecord(iteration=r, threshold=t,
                                           support_size=int(np.count_nonzero(theta))))
    return theta, tuple(trace)


def desparsify(theta_hat_r: np.ndarray, instance: SparseInstance,
               dec: Decorrelator) -> np.ndarray:
    """One unthresholded correction theta + (1/n) V X^T (Y - X theta)."""
    theta_hat_r = np.asarray(theta_hat_r, dtype=np.float64)
    if theta_hat_r.shape != (instance.p,):
        raise ValueError(f"estimate must have length {instance.p}")
    resid = instance.y - instance.x @ theta_hat_r
    return theta_hat_r + dec.v @ (instance.x.T @ resid) / instance.n


def sparse_sigma(instance: SparseInstance, theta: np.ndarray) -> float:
    resid = instance.y - instance.x @ theta
    return float(np.linalg.norm(resid) / math.sqrt(instance.n))


def sparse_confidence_intervals(theta_hat: np.ndarray, instance: SparseInstance,
                                dec: Decorrelator, sigma_hat: float,
                                level: float = 0.95) -> EntrywiseResult:
    """Coordinate j gets half-width sigma * sqrt((V Sigma V^T)_jj / n) * z_{(1+level)/2}."""
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    if sigma_hat < 0:
        raise ValueError("sigma_hat must be nonnegative")
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    vsv_diag = np.einsum("ij,jk,ik->i", dec.v, dec.sigma_hat, dec.v)
    z = ndtri((1.0 + level) / 2.0)
    half = sigma_hat * np.sqrt(vsv_diag / instance.n) * z
    return EntrywiseResult(estimate=theta_hat, half_width=half,
                           sigma=sigma_hat, level=level, quantile=z)


def sparse_decomposition_terms(theta_hat_r: np.ndarray, instance: SparseInstance,
                               dec: Decorrelator):
    """Split sqrt(n) (desparsified - truth) into the remainder and noise parts.

    Requires the instance to carry its truth and realized noise. Returns
    (remainder, noise_term, total); remainder + noise_term equals total up to
    floating point whenever Y = X theta + eps holds exactly.
    """
    if instance.theta_truth is None or instance.realized_noise is None:
        raise ValueError("instance must carry theta_truth and realized_noise")
    root_n = math.sqrt(instance.n)
    diff = np.asarray(theta_hat_r, dtype=np.float64) - instance.theta_truth
    remainder = root_n * (diff - dec.v @ (dec.sigma_hat @ diff))
    noise_term = dec.v @ (instance.x.T @ instance.realized_noise) / root_n
    total = root_n * (desparsify(theta_hat_r, instance, dec) - instance.theta_truth)
    return remainder, noise_term, total


def gen_sparse_instance(n: int, p: int, k: int, noise_std: float, seed) -> SparseInstance:
    """Gaussian design, k random coordinates with amplitudes uniform in
    [1, 3] and random signs, Gaussian noise."""
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    rng = make_rng(seed)
    x = rng.standard_normal((n, p))
    support = rng.choice(p, size=k, replace=False)
    theta = np.zeros(p)
    theta[support] = rng.uniform(1.0, 3.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    eps = rng.standard_normal(n) * noise_std
    return SparseInstance(x=x, y=x @ theta + eps, theta_truth=theta,
                          realized_noise=eps)
