"""Noisy trace regression: designs, observations, and the design operators.

The data model is Y_i = Re tr((X^i)^H Theta) + noise_i for a batch of d x d
design matrices X^i. ``apply_design`` evaluates the forward operator in one
BLAS pass, the real part by definition, and ``adjoint_apply`` its adjoint
(1/n) sum_i v_i X^i under the trace inner product.

Only this module reads a batch's dense ``matrices``. Building a batch reads
them once, to check that they are finite and to sum the entry energies that
other modules take from ``DesignBatch.entry_energy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import as_numbers, check_array, check_float, check_int, read_only
from ._rng import make_rng, standard_normal

__all__ = [
    "DesignBatch",
    "Observations",
    "apply_design",
    "adjoint_apply",
    "gen_gaussian_design",
    "gen_basis_design",
    "gen_low_rank_theta",
    "simulate_observations",
]


def _block_rows(arr: np.ndarray) -> int:
    """Rows per block of the energy pass: 1/64 of the design, 64 KiB to 1 MiB."""
    return max(1, min(max(arr.nbytes >> 6, 1 << 16), 1 << 20) // arr[0].real.nbytes)


@dataclass(frozen=True, eq=False)
class DesignBatch:
    """A batch of n square design matrices, shape (n, d, d) with n, d >= 1,
    held as float64 or complex128 (any other dtype is converted once).

    The entries and ``entry_energy``, the sums sum_i |X^i|^2 computed from
    them once, are read-only (``_checks.read_only``).
    """

    matrices: np.ndarray
    entry_energy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(as_numbers(self.matrices, "matrices", dtype=None))
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected shape (n, d, d), got {arr.shape}")
        if arr.size == 0:
            raise ValueError(f"matrices must not be empty, got shape {arr.shape}")
        # Blocks of rows, each reduced from the running total added into its
        # row 0: the bits of np.sum(np.abs(arr) ** 2, axis=0), and NaN or inf
        # propagate, so finite energies prove every entry finite.
        n, rows = arr.shape[0], _block_rows(arr)
        buf = np.empty((min(rows, n),) + arr.shape[1:], dtype=np.float64)
        energy = np.zeros_like(buf[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, rows):
                chunk, block = arr[start:start + rows], buf[:min(rows, n - start)]
                # x * x is |x|^2 bit for bit, so only complex rows take np.abs
                np.square(np.abs(chunk, out=block) if arr.dtype.kind == "c" else chunk, out=block)
                block[0] += energy
                np.add.reduce(block, axis=0, out=energy)
        if not np.all(np.isfinite(energy)):
            check_array(arr, "matrices", None, dtype=None)
        object.__setattr__(self, "matrices", read_only(arr))
        object.__setattr__(self, "entry_energy", read_only(energy))

    @property
    def n(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True, eq=False)
class Observations:
    """Observed responses plus generation-time metadata.

    ``noise`` retains the realized noise vector when the observations were
    simulated, which is what makes exact decomposition identities testable.
    Both vectors are read-only (``_checks.read_only``).
    """

    values: np.ndarray
    noise: np.ndarray | None = None

    def __post_init__(self):
        vals = read_only(check_array(self.values, "values", (None,)))
        object.__setattr__(self, "values", vals)
        if self.noise is not None:
            object.__setattr__(self, "noise",
                               read_only(check_array(self.noise, "noise", vals.shape)))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _obs_values(y, n: int) -> np.ndarray:
    """``y`` (an Observations or a vector) as a finite float64 vector of length n."""
    return check_array(y.values if isinstance(y, Observations) else y, "y", (n,))


def apply_design(batch: DesignBatch, a) -> np.ndarray:
    """Forward operator: the vector (Re tr((X^i)^H a))_i in one BLAS pass,
    the real part by definition, so complex designs and ``a`` lose nothing."""
    x = batch.matrices
    n, d = batch.n, batch.dim
    a = check_array(a, "a", (d, d), dtype=None)
    if x.dtype.kind != "c":
        return x.reshape(n, d * d) @ a.real.ravel()
    # Re(conj(x) a) = Re x Re a + Im x Im a: one gemv of the interleaved view
    b = np.empty(2 * d * d)
    b[0::2], b[1::2] = a.real.ravel(), a.imag.ravel()
    return x.view(np.float64).reshape(n, 2 * d * d) @ b


def adjoint_apply(batch: DesignBatch, v) -> np.ndarray:
    """Adjoint of the forward operator: (1/n) sum_i v_i X^i.

    Satisfies (1/n) <apply_design(X, A), v> = Re <A, adjoint_apply(X, v)>
    under the trace inner product <A, B> = tr(A^H B).
    """
    v = check_array(v, "v", (batch.n,))
    n, d = batch.n, batch.dim
    # one gemv over the flattened rows: the bits of np.tensordot(v, X, 1)
    return (v @ batch.matrices.reshape(n, d * d)).reshape(d, d) / n


def gen_gaussian_design(n: int, d: int, seed) -> DesignBatch:
    """n independent standard Gaussian d x d design matrices.

    Exactly ``make_rng(seed).standard_normal((n, d, d))``; with two or more
    usable CPUs, a design of 2**20 normals or more is drawn in three parts,
    the caller and two threads each drawing one (see
    ``_rng.standard_normal``).
    """
    n, d = check_int(n, "n"), check_int(d, "d")
    return DesignBatch(standard_normal(seed, (n, d, d)))


def gen_basis_design(d: int) -> DesignBatch:
    """The exact-isometry design {d * B_j} over the elementary matrix basis.

    n = d^2 matrices, enumerated row-major; Parseval makes the forward
    operator an exact isometry and the adjoint an exact inverse on noiseless
    data.
    """
    d = check_int(d, "d")
    arr = np.zeros((d * d, d, d))
    idx = np.arange(d * d)
    arr[idx, idx // d, idx % d] = float(d)
    return DesignBatch(arr)


def gen_low_rank_theta(d: int, k: int, seed) -> np.ndarray:
    """Random rank-k symmetric PSD target: sum_{l<=k} N_l N_l^T with
    standard Gaussian N_l."""
    d = check_int(d, "d")
    k = check_int(k, "k", 1, d + 1)
    rng = make_rng(seed)
    factors = rng.standard_normal((k, d))
    return factors.T @ factors


def simulate_observations(batch: DesignBatch, theta, noise_std: float, seed) -> Observations:
    """Draw Y = X(theta) + noise_std * eps with standard Gaussian eps,
    retaining the realized noise vector."""
    noise_std = check_float(noise_std, "noise_std")
    eps = noise_std * make_rng(seed).standard_normal(batch.n)
    values = apply_design(batch, theta) + eps
    return Observations(values=values, noise=eps)
