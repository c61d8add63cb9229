"""Iterative hard thresholding for low-rank trace regression.

Each iteration backprojects the residual through the design adjoint, adds it
to the current estimate, and hard-thresholds the spectrum at a threshold T_r
that contracts geometrically toward the noise floor:

    T_r = rho * T_{r-1} + upsilon_r,

stopping as soon as (after thresholding one last time) T_r falls below
(1 + e) * upsilon_r / (1 - rho) with e = 0.1, or after ceil(10 ln n)
iterations. The contraction rho = 1/2, the margin e and the cap are
constants, not knobs: no run sets another. Thresholds can be supplied
directly (fixed mode) or calibrated from the running residual norm
(data-driven mode), in which case the first threshold is set to
sigma_1 + upsilon_1 and the recursion takes over from the second iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_array, check_float, check_int, read_only
from ._ndtri import ndtri
from .linalg import hard_threshold_singular
from .trace_model import DesignBatch, adjoint_apply, apply_design, _obs_values

__all__ = [
    "IhtConfig",
    "IterationRecord",
    "IhtState",
    "StoppingBoundError",
    "upsilon_r",
    "threshold_step",
    "stopping_check",
    "schedule_iteration_bound",
    "run_iht",
]


@dataclass(frozen=True)
class IhtConfig:
    """Estimator knobs.

    upsilon=None selects the data-driven noise term sigma_r * sqrt(d/n) *
    z_0.90 (see ``upsilon_r``); a float fixes it. t0=None selects the
    data-driven first threshold sigma_1 + upsilon_1; a float is used as T_0
    seeding the recursion at the first iteration. The rest of the schedule
    is fixed: the contraction rho = 1/2, the iteration cap ceil(10 ln n),
    and the stopping margin e = 0.1. A run stops once
    T_r <= (1 + e) upsilon / (1 - rho), and the "10" in
    ``schedule_iteration_bound`` is 1/e, so the iteration bound a run
    reports always matches its stopping line.
    """

    upsilon: float | None = None
    t0: float | None = None

    def __post_init__(self):
        for name in ("upsilon", "t0"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check_float(value, name))


class StoppingBoundError(ArithmeticError):
    """A fixed-upsilon schedule ran past its closed-form iteration cap, which
    means the threshold arithmetic is broken."""


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of a run: its number (from 1), threshold, residual scale
    sigma, noise term upsilon, rank, residual norm and whether the
    data-driven clamp held the threshold. The numbers are checked: counts
    are ints, the four scales floats in [0, inf)."""

    iteration: int
    threshold: float
    sigma: float
    upsilon: float
    rank: int
    residual_l2: float
    clamped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "iteration", check_int(self.iteration, "iteration"))
        object.__setattr__(self, "rank", check_int(self.rank, "rank", 0))
        for name in ("threshold", "sigma", "upsilon", "residual_l2"):
            object.__setattr__(self, name, check_float(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class IhtState:
    """The result of a finished run.

    However it is built, the state holds ``estimate`` as a finite, read-only
    matrix, and refuses an empty ``trace``: it records one entry per
    performed iteration, and ``iteration``, ``threshold``, ``rank`` and
    ``final_sigma`` read its last record. ``iteration_bound`` is infinite
    when upsilon is zero. The state holds neither the design nor the
    observations, so keeping it does not keep the design in memory.
    """

    estimate: np.ndarray
    trace: tuple[IterationRecord, ...]
    converged: bool
    iteration_bound: float

    def __post_init__(self):
        if not self.trace:
            raise ValueError("trace must not be empty")
        estimate = check_array(self.estimate, "estimate", (None, None), dtype=None)
        object.__setattr__(self, "estimate", read_only(estimate))

    @property
    def iteration(self) -> int:
        return self.trace[-1].iteration

    @property
    def threshold(self) -> float:
        return self.trace[-1].threshold

    @property
    def rank(self) -> int:
        return self.trace[-1].rank

    @property
    def final_sigma(self) -> float:
        return self.trace[-1].sigma


def upsilon_r(sigma: float, d: int, n: int) -> float:
    """Noise term sigma * sqrt(d/n) * z_0.90 with z the standard normal
    quantile function. The quantile is fixed: 0.90 is the level every run
    has used, and no run sets another."""
    sigma, d, n = check_float(sigma, "sigma"), check_int(d, "d"), check_int(n, "n")
    return sigma * math.sqrt(d / n) * ndtri(0.90)


_RHO = 0.5  # the threshold recursion's contraction, fixed like e = 0.1


def threshold_step(t_prev: float, upsilon: float) -> float:
    """One threshold recursion step rho * t_prev + upsilon, rho = 1/2."""
    t_prev, upsilon = check_float(t_prev, "t_prev"), check_float(upsilon, "upsilon")
    return _RHO * t_prev + upsilon


def stopping_check(t_r: float, upsilon: float) -> bool:
    """Stop once T_r <= (1 + e) * upsilon / (1 - rho) with e = 0.1 and
    rho = 1/2, the line ``schedule_iteration_bound`` is derived for."""
    t_r, upsilon = check_float(t_r, "t_r"), check_float(upsilon, "upsilon")
    return t_r <= (1.0 + 0.1) * upsilon / (1.0 - _RHO)


def schedule_iteration_bound(t0: float, upsilon: float) -> float:
    """Closed-form cap on the stopping iteration for a fixed-upsilon schedule
    seeded at T_0: 1 + log(10 (1-rho) T_0 / upsilon) / log(1/rho), rho = 1/2.

    The "10" is 1/e for the stopping margin e = 0.1 of ``stopping_check``:
    T_r - upsilon/(1-rho) = rho^r (T_0 - upsilon/(1-rho)), so the line
    T_r <= (1 + e) upsilon/(1-rho) is met once rho^r T_0 <= e upsilon/(1-rho).
    A smaller e would outrun the cap, which is why e is fixed.

    Infinite when upsilon is zero (the schedule then never meets a positive
    stopping line), and 1 when 10 (1-rho) T_0 <= upsilon, since then
    T_1 = rho T_0 + upsilon <= upsilon / (1-rho) already meets it.
    """
    t0, upsilon = check_float(t0, "t0"), check_float(upsilon, "upsilon")
    if upsilon == 0:
        return math.inf
    seed_ratio = 10.0 * (1.0 - _RHO) * t0 / upsilon
    if seed_ratio <= 1.0:
        return 1.0
    return 1.0 + math.log(seed_ratio) / math.log(1.0 / _RHO)


# sigma floor per unit of ||y|| / sqrt(n): an exact fit's residual scale
# settles at 1 to 20 eps, and at 2^10 eps a noiseless d=64, k=3, n=4000 run
# stops after 79 of its 83 iterations at relative error 4e-14
_SIGMA_FLOOR = 2.0 ** 10 * np.finfo(np.float64).eps


def run_iht(batch: DesignBatch, y, config: IhtConfig = IhtConfig()):
    """Run the full schedule; returns (estimate, state), where estimate is
    the state's read-only ``state.estimate``.

    sigma_r is measured at the incoming estimate, so the recorded sigma of
    iteration r is the residual scale before that iteration updated the
    estimate. In data-driven mode the threshold recursion is clamped so the
    sequence never increases, and upsilon_r reads max(sigma_r, floor) with a
    rounding floor of 2^10 * eps * ||y||_2 / sqrt(n), so that a noiseless run
    can meet its stopping line; the record keeps the measured sigma_r.

    The stopping rule is evaluated on each iteration's own threshold, so the
    spectrum is always thresholded one final time before the run stops. The
    run makes at most ceil(10 ln n) iterations, a cap no config changes; a run
    that exhausts it without meeting the stopping rule is returned with
    converged=False rather than raising.

    Each iteration makes at most one forward and one adjoint pass over the
    design: the residual recorded after thresholding is the next iteration's
    input. Since X(0) = 0, the first iteration starts from y itself, and an
    iteration whose thresholded estimate has rank 0 sets its residual to y
    without a forward pass. X*(y) is computed once and reused by every
    iteration that starts from y. With the data-driven first threshold
    sigma_1 + upsilon_1 the first estimate usually has rank 0, so a run of r
    iterations then makes r - 1 forward and r - 1 adjoint passes.
    """
    values = _obs_values(y, batch.n)
    n, d = batch.n, batch.dim
    max_iters = max(1, math.ceil(10.0 * math.log(n)))
    threshold = config.t0
    sigma_floor = _SIGMA_FLOOR * float(np.linalg.norm(values) / np.sqrt(n))
    trace = []
    converged = False
    resid = values
    backproj_y = None
    for iteration in range(1, max_iters + 1):
        sigma = float(np.linalg.norm(resid) / np.sqrt(n))
        ups = (config.upsilon if config.upsilon is not None
               else upsilon_r(max(sigma, sigma_floor), d, n))
        clamped = False
        if threshold is None:
            # data-driven start: first threshold is sigma_1 + upsilon_1
            threshold = sigma + ups
        else:
            t_new = threshold_step(threshold, ups)
            clamped = config.upsilon is None and t_new > threshold
            if not clamped:
                threshold = t_new
        if resid is not values:
            backproj = adjoint_apply(batch, resid)
        elif backproj_y is None:
            backproj = backproj_y = adjoint_apply(batch, values)
        else:
            backproj = backproj_y
        if iteration == 1:
            estimate = np.zeros_like(backproj)
        factors = hard_threshold_singular(estimate + backproj, threshold)
        estimate = factors.reconstruct()
        rank = factors.rank()
        resid = values if rank == 0 else values - apply_design(batch, estimate)
        trace.append(IterationRecord(
            iteration=iteration, threshold=threshold, sigma=sigma, upsilon=ups,
            rank=rank, residual_l2=float(np.linalg.norm(resid)), clamped=clamped))
        if stopping_check(threshold, ups):
            converged = True
            break
    ups_floor = min(rec.upsilon for rec in trace)
    fixed_seed = config.upsilon is not None and config.t0 is not None
    t_seed = config.t0 if fixed_seed else trace[0].threshold
    bound = schedule_iteration_bound(t_seed, ups_floor)
    state = IhtState(estimate=estimate, trace=tuple(trace), converged=converged,
                     iteration_bound=bound)
    if converged and fixed_seed and config.upsilon > 0 and state.iteration > bound:
        # fixed-upsilon schedules come with an exact iteration cap; tripping it
        # means the schedule arithmetic is broken
        raise StoppingBoundError(
            f"stopping bound violated: r={state.iteration} > {bound:.3f}")
    return state.estimate, state
