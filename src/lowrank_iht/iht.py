"""Iterative hard thresholding for low-rank trace regression.

Each iteration backprojects the residual through the design adjoint, adds it
to the current estimate, and hard-thresholds the spectrum at a threshold T_r
that contracts geometrically toward the noise floor:

    T_r = rho * T_{r-1} + upsilon_r,

stopping as soon as (after thresholding one last time) T_r falls below
(1 + e) * upsilon_r / (1 - rho). Thresholds can be supplied directly (fixed
mode) or calibrated from the running residual norm (data-driven mode), in
which case the first threshold is set to sigma_1 + upsilon_1 and the
recursion takes over from the second iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._ndtri import ndtri
from .linalg import hard_threshold_singular
from .trace_model import DesignBatch, RipEstimate, adjoint_apply, apply_design, _obs_values

__all__ = [
    "IhtConfig",
    "IterationRecord",
    "IhtState",
    "StoppingBoundError",
    "empirical_sigma",
    "upsilon_r",
    "threshold_step",
    "stopping_check",
    "schedule_iteration_bound",
    "iht_step",
    "run_iht",
    "write_trace_csv",
]


@dataclass(frozen=True)
class IhtConfig:
    """Estimator knobs.

    upsilon=None selects the data-driven noise term
    sigma_r * sqrt(d/n) * z_{upsilon_quantile}; a float fixes it. t0=None
    selects the data-driven first threshold sigma_1 + upsilon_1; a float is
    used as T_0 seeding the recursion at the first iteration. max_iters=None
    resolves to ceil(10 * ln n) at run time.
    """

    rho: float = 0.5
    upsilon: float | None = None
    upsilon_quantile: float = 0.90
    t0: float | None = None
    e: float = 0.1
    max_iters: int | None = None

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if self.upsilon is not None and not 0 <= self.upsilon < math.inf:
            raise ValueError("fixed upsilon must be nonnegative and finite")
        if not 0.5 <= self.upsilon_quantile < 1:
            raise ValueError("upsilon_quantile must lie in [0.5, 1)")
        if self.t0 is not None and not 0 <= self.t0 < math.inf:
            raise ValueError("t0 must be nonnegative and finite")
        if not 0 <= self.e < math.inf:
            raise ValueError("e must be nonnegative and finite")
        if self.max_iters is not None and (isinstance(self.max_iters, bool)
                                           or self.max_iters < 1):
            raise ValueError("max_iters must be an integer of at least 1")


class StoppingBoundError(ArithmeticError):
    """A fixed-upsilon schedule ran past its closed-form iteration cap, which
    means the threshold arithmetic is broken."""


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    threshold: float
    sigma: float
    upsilon: float
    rank: int
    residual_l2: float
    clamped: bool = False


@dataclass(frozen=True)
class IhtState:
    """Estimator state after some number of iterations.

    ``threshold`` is None before the first iteration in data-driven T_0 mode.
    ``trace`` records one entry per performed iteration; ``converged`` is None
    while the run is still in progress.
    """

    estimate: np.ndarray
    threshold: float | None
    iteration: int
    trace: tuple[IterationRecord, ...] = ()
    converged: bool | None = None
    iteration_bound: float | None = None
    rho_condition_ok: bool | None = None

    @classmethod
    def initial(cls, d: int, t0: float | None = None, dtype=np.float64) -> "IhtState":
        return cls(estimate=np.zeros((d, d), dtype=dtype), threshold=t0, iteration=0)

    @property
    def final_sigma(self) -> float:
        if not self.trace:
            raise ValueError("no iterations recorded yet")
        return self.trace[-1].sigma

    @property
    def rank(self) -> int:
        return self.trace[-1].rank if self.trace else 0


def empirical_sigma(batch: DesignBatch, y, theta_hat) -> float:
    """Residual-based noise scale ||y - X(theta_hat)||_2 / sqrt(n)."""
    values = _obs_values(y)
    resid = values - apply_design(batch, theta_hat)
    return float(np.linalg.norm(resid) / np.sqrt(batch.n))


def upsilon_r(sigma: float, d: int, n: int, quantile: float = 0.90) -> float:
    """Noise term sigma * sqrt(d/n) * z_quantile with z the standard normal
    quantile function."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if not 0 < quantile < 1:
        raise ValueError("quantile must lie in (0, 1)")
    return sigma * math.sqrt(d / n) * ndtri(quantile)


def threshold_step(t_prev: float, rho: float, upsilon: float) -> float:
    """One threshold recursion step rho * t_prev + upsilon."""
    if t_prev < 0 or upsilon < 0:
        raise ValueError("thresholds must be nonnegative")
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    return rho * t_prev + upsilon


def stopping_check(t_r: float, upsilon: float, rho: float = 0.5, e: float = 0.1) -> bool:
    """Stop once T_r <= (1 + e) * upsilon / (1 - rho)."""
    return t_r <= (1.0 + e) * upsilon / (1.0 - rho)


def schedule_iteration_bound(t0: float, upsilon: float, rho: float) -> float:
    """Closed-form cap on the stopping iteration for a fixed-upsilon schedule
    seeded at T_0: 1 + log(10 (1-rho) T_0 / upsilon) / log(1/rho).

    Infinite when upsilon is zero (the schedule then never meets a positive
    stopping line).
    """
    if upsilon <= 0:
        return math.inf
    return 1.0 + math.log(10.0 * (1.0 - rho) * t0 / upsilon) / math.log(1.0 / rho)


def iht_step(state: IhtState, batch: DesignBatch, y, config: IhtConfig = IhtConfig()) -> IhtState:
    """One backproject-and-threshold iteration, returning the new state.

    sigma_r is measured at the incoming estimate (so the recorded sigma of
    iteration r is the residual scale before that iteration updated the
    estimate). In data-driven mode the threshold recursion is clamped so the
    sequence never increases.

    Costs two forward passes over the design (the residual at the incoming
    estimate and the one recorded after thresholding) and one adjoint pass.
    ``run_iht`` carries the recorded residual into the next iteration, so
    each of its iterations costs one forward and one adjoint pass.
    """
    values = _obs_values(y)
    _check_length(values, batch)
    resid = values - apply_design(batch, state.estimate)
    return _step(state, batch, values, config, resid)[0]


def _check_length(values: np.ndarray, batch: DesignBatch):
    if values.shape[0] != batch.n:
        raise ValueError("observation length does not match design batch")


def _step(state: IhtState, batch: DesignBatch, values: np.ndarray, config: IhtConfig,
          resid: np.ndarray) -> tuple[IhtState, np.ndarray]:
    """``iht_step`` given resid = values - X(state.estimate); also returns
    the residual at the new estimate."""
    n, d = batch.n, batch.dim
    sigma = float(np.linalg.norm(resid) / np.sqrt(n))
    if config.upsilon is not None:
        ups = config.upsilon
    else:
        ups = upsilon_r(sigma, d, n, config.upsilon_quantile)
    clamped = False
    if state.threshold is None:
        # data-driven start: first threshold is sigma_1 + upsilon_1
        t_new = sigma + ups
    else:
        t_new = threshold_step(state.threshold, config.rho, ups)
        if config.upsilon is None and t_new > state.threshold:
            t_new = state.threshold
            clamped = True
    backproj = adjoint_apply(batch, resid)
    factors = hard_threshold_singular(state.estimate + backproj, t_new)
    estimate = factors.reconstruct()
    resid_after = values - apply_design(batch, estimate)
    record = IterationRecord(
        iteration=state.iteration + 1,
        threshold=t_new,
        sigma=sigma,
        upsilon=ups,
        rank=factors.rank(),
        residual_l2=float(np.linalg.norm(resid_after)),
        clamped=clamped,
    )
    state = replace(state, estimate=estimate, threshold=t_new,
                    iteration=state.iteration + 1, trace=state.trace + (record,))
    return state, resid_after


def _default_max_iters(n: int) -> int:
    return max(1, math.ceil(10.0 * math.log(n)))


def run_iht(batch: DesignBatch, y, config: IhtConfig = IhtConfig(),
            rip: RipEstimate | None = None):
    """Run the full schedule; returns (estimate, state).

    The stopping rule is evaluated on each iteration's own threshold, so the
    spectrum is always thresholded one final time before the run stops. A run
    that exhausts max_iters without meeting the stopping rule is returned with
    converged=False rather than raising.

    Each iteration makes one forward and one adjoint pass over the design:
    the residual recorded after thresholding is the next iteration's input,
    and the first iteration starts from y itself because X(0) = 0. The trace
    and estimate are bit-identical to chaining ``iht_step``.

    When a RipEstimate at rank 2K is supplied, the contraction validity
    condition rho >= 4 sqrt(K) c(2K) is checked and recorded on the state.
    """
    values = _obs_values(y)
    _check_length(values, batch)
    n = batch.n
    max_iters = config.max_iters if config.max_iters is not None else _default_max_iters(n)
    dtype = np.complex128 if np.issubdtype(batch.matrices.dtype, np.complexfloating) else np.float64
    state = IhtState.initial(batch.dim, t0=config.t0, dtype=dtype)
    converged = False
    resid = values
    for _ in range(max_iters):
        state, resid = _step(state, batch, values, config, resid)
        rec = state.trace[-1]
        if stopping_check(rec.threshold, rec.upsilon, config.rho, config.e):
            converged = True
            break
    upsilons = [rec.upsilon for rec in state.trace]
    ups_floor = min(upsilons)
    if config.upsilon is not None:
        t_seed = state.trace[0].threshold if config.t0 is None else config.t0
    else:
        t_seed = state.trace[0].threshold
    bound = schedule_iteration_bound(t_seed, ups_floor, config.rho)
    rho_ok = None
    if rip is not None:
        k_half = rip.k / 2.0
        rho_ok = bool(config.rho >= 4.0 * math.sqrt(k_half) * rip.max_deviation)
    state = replace(state, converged=converged, iteration_bound=bound,
                    rho_condition_ok=rho_ok)
    if (converged and config.upsilon is not None and config.upsilon > 0
            and config.t0 is not None and config.e >= 0.1
            and 10.0 * (1.0 - config.rho) * config.t0 >= config.upsilon
            and state.iteration > bound):
        # fixed-upsilon schedules come with an exact iteration cap; tripping it
        # means the schedule arithmetic is broken
        raise StoppingBoundError(
            f"stopping bound violated: r={state.iteration} > {bound:.3f}")
    return state.estimate, state


def write_trace_csv(state: IhtState, path):
    """Per-iteration trace with columns iter, T_r, sigma_r, rank, residual_l2."""
    with open(path, "w", newline="\n") as fh:
        fh.write("iter,T_r,sigma_r,rank,residual_l2\n")
        for rec in state.trace:
            fh.write(f"{rec.iteration},{rec.threshold!r},{rec.sigma!r},"
                     f"{rec.rank},{rec.residual_l2!r}\n")
