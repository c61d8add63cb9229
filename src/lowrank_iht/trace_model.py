"""Noisy trace regression: designs, observations, and near-isometry probing.

The data model is Y_i = Re tr((X^i)^H Theta) + noise_i for a batch of d x d
design matrices X^i. ``apply_design`` evaluates the forward operator,
``adjoint_apply`` its adjoint (1/n) sum_i v_i X^i under the trace inner
product, and ``estimate_rip_constant`` probes the restricted-isometry quality
of a design by Monte-Carlo over random low-rank matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._rng import make_rng

__all__ = [
    "DesignBatch",
    "Observations",
    "RipEstimate",
    "apply_design",
    "adjoint_apply",
    "isometry_deviation",
    "gen_gaussian_design",
    "gen_basis_design",
    "gen_low_rank_theta",
    "simulate_observations",
    "estimate_rip_constant",
]

IMAG_RESIDUE_TOL = 1e-9


@dataclass(frozen=True)
class DesignBatch:
    """A batch of n square design matrices, shape (n, d, d).

    Treat as read-only after construction; all operations are pure functions
    of the batch.
    """

    matrices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrices)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected shape (n, d, d), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("a design batch needs at least one matrix")
        if not (np.issubdtype(arr.dtype, np.floating)
                or np.issubdtype(arr.dtype, np.complexfloating)):
            arr = arr.astype(np.float64)
        arr = np.ascontiguousarray(arr)
        # NaN and inf propagate through a sum, so a finite sum proves every
        # entry finite without an (n, d, d) bool temporary; only a sum that
        # overflowed (or met a non-finite entry) needs the entrywise test
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(arr, axis=None)
        if not np.isfinite(total) and not np.all(np.isfinite(arr)):
            raise ValueError("design entries must be finite")
        object.__setattr__(self, "matrices", arr)

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True)
class Observations:
    """Observed responses plus generation-time metadata.

    ``noise`` retains the realized noise vector when the observations were
    simulated, which is what makes exact decomposition identities testable.
    ``noise_std`` is None when the noise is not an explicit Gaussian scale.
    """

    values: np.ndarray
    noise_std: float | None = None
    noise: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("observation values must be a 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise ValueError("observation values must be finite")
        object.__setattr__(self, "values", vals)
        if self.noise_std is not None and not self.noise_std >= 0:
            raise ValueError("noise_std must be nonnegative")
        if self.noise is not None:
            noise = np.asarray(self.noise, dtype=np.float64)
            if noise.shape != vals.shape:
                raise ValueError("noise vector must match values in length")
            object.__setattr__(self, "noise", noise)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class RipEstimate:
    """Monte-Carlo lower estimate of the restricted-isometry deviation at a
    given rank. ``max_deviation`` only certifies the probed directions; the
    true supremum can be larger."""

    k: int
    trials: int
    max_deviation: float
    deviations: np.ndarray = field(repr=False)


def _obs_values(y) -> np.ndarray:
    if isinstance(y, Observations):
        return y.values
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("expected a 1-D observation vector")
    return y


def apply_design(batch: DesignBatch, a) -> np.ndarray:
    """Forward operator: the vector (Re tr((X^i)^H a))_i.

    Emits a RuntimeWarning when the discarded imaginary residue exceeds
    1e-9; for Hermitian-by-construction instances that signals numerical
    degradation, while intentional non-Hermitian projections trigger it by
    design.
    """
    x = batch.matrices
    n, d = batch.n, batch.dim
    a = np.asarray(a)
    if a.shape != (d, d):
        raise ValueError(f"matrix shape {a.shape} does not match design dim {d}")
    x_complex = np.issubdtype(x.dtype, np.complexfloating)
    a_complex = np.issubdtype(a.dtype, np.complexfloating)
    if not x_complex:
        flat = x.reshape(n, d * d)
        if not a_complex:
            return flat @ np.ascontiguousarray(a, dtype=np.float64).ravel()
        re = flat @ np.ascontiguousarray(a.real).ravel()
        im = flat @ np.ascontiguousarray(a.imag).ravel()
    else:
        # Interleaved float view: one BLAS pass per component, no big copies.
        xv = x.view(np.float64).reshape(n, 2 * d * d)
        b = np.empty(2 * d * d)
        b[0::2] = np.asarray(a.real, dtype=np.float64).ravel()
        b[1::2] = np.asarray(a.imag, dtype=np.float64).ravel() if a_complex else 0.0
        re = xv @ b
        b2 = np.empty(2 * d * d)
        b2[0::2] = np.asarray(a.imag, dtype=np.float64).ravel() if a_complex else 0.0
        b2[1::2] = -np.asarray(a.real, dtype=np.float64).ravel()
        im = xv @ b2
    residue = float(np.max(np.abs(im)))
    if residue > IMAG_RESIDUE_TOL:
        warnings.warn(
            f"apply_design discarded imaginary parts up to {residue:.3e}",
            RuntimeWarning, stacklevel=2)
    return re


def adjoint_apply(batch: DesignBatch, v) -> np.ndarray:
    """Adjoint of the forward operator: (1/n) sum_i v_i X^i.

    Satisfies (1/n) <apply_design(X, A), v> = Re <A, adjoint_apply(X, v)>
    under the trace inner product <A, B> = tr(A^H B).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (batch.n,):
        raise ValueError(f"weight vector length {v.shape} does not match n={batch.n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("weights must be finite")
    return np.tensordot(v, batch.matrices, axes=(0, 0)) / batch.n


def isometry_deviation(batch: DesignBatch, a) -> float:
    """Relative isometry deviation |(1/n)||X(a)||^2 - ||a||_F^2| / ||a||_F^2."""
    a = np.asarray(a)
    fro2 = float(np.sum(np.abs(a) ** 2))
    if fro2 == 0.0:
        raise ValueError("cannot probe with the zero matrix")
    va = apply_design(batch, a)
    return abs(float(va @ va) / batch.n - fro2) / fro2


def gen_gaussian_design(n: int, d: int, seed) -> DesignBatch:
    """n independent standard Gaussian d x d design matrices."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = make_rng(seed)
    return DesignBatch(rng.standard_normal((n, d, d)))


def gen_basis_design(d: int) -> DesignBatch:
    """The exact-isometry design {d * B_j} over the elementary matrix basis.

    n = d^2 matrices, enumerated row-major; Parseval makes the forward
    operator an exact isometry and the adjoint an exact inverse on noiseless
    data.
    """
    if d < 1:
        raise ValueError("d must be positive")
    arr = np.zeros((d * d, d, d))
    idx = np.arange(d * d)
    arr[idx, idx // d, idx % d] = float(d)
    return DesignBatch(arr)


def gen_low_rank_theta(d: int, k: int, seed) -> np.ndarray:
    """Random rank-k symmetric PSD target: sum_{l<=k} N_l N_l^T with
    standard Gaussian N_l."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    rng = make_rng(seed)
    factors = rng.standard_normal((k, d))
    return factors.T @ factors


def simulate_observations(batch: DesignBatch, theta, noise_std: float, seed) -> Observations:
    """Draw Y = X(theta) + noise_std * eps with standard Gaussian eps,
    retaining the realized noise vector."""
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    eps = noise_std * make_rng(seed).standard_normal(batch.n)
    values = apply_design(batch, theta) + eps
    return Observations(values=values, noise_std=float(noise_std), noise=eps)


def estimate_rip_constant(batch: DesignBatch, k: int, trials: int, seed,
                          probe: str = "real") -> RipEstimate:
    """Monte-Carlo probe of the rank-k restricted isometry deviation.

    probe="real" draws A = G H^T with real standard Gaussian G, H (d x k),
    normalized to unit Frobenius norm. probe="hermitian" draws
    A = G diag(g) G^H with complex Gaussian G, for designs that only measure
    the Hermitian component (e.g. Pauli tomography designs).
    """
    if not 1 <= k <= batch.dim:
        raise ValueError("need 1 <= k <= d")
    if trials < 1:
        raise ValueError("trials must be positive")
    if probe not in ("real", "hermitian"):
        raise ValueError(f"unknown probe class {probe!r}")
    rng = make_rng(seed)
    d = batch.dim
    devs = np.empty(trials)
    for t in range(trials):
        if probe == "real":
            a = rng.standard_normal((d, k)) @ rng.standard_normal((d, k)).T
        else:
            g = (rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))) / np.sqrt(2)
            a = (g * rng.standard_normal(k)) @ g.conj().T
        devs[t] = isometry_deviation(batch, a / np.linalg.norm(a))
    return RipEstimate(k=k, trials=trials, max_deviation=float(devs.max()),
                       deviations=devs)
