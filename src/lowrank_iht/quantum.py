"""Multi-qubit Pauli measurement simulator.

Measuring m qubits in a Pauli basis per qubit yields a sign vector in
{+1,-1}^m whose distribution is governed by the density matrix. Averaging
parities of outcome vectors marginalized over every qubit subset turns N
measurement settings into N * 2^m trace-regression rows whose design matrices
are rescaled Pauli words, which is the form the low-rank estimator consumes.
N settings of m qubits are an (N, m) array of codes 1/2/3 = X/Y/Z (0 = I).
A dataset keeps only the settings and the observations; each design row is
fixed by its setting and subset, so the dense rows are built when asked for.

Conventions fixed here (they have to be fixed somewhere for byte-stable
datasets): qubit 1 is the leftmost Kronecker factor; outcome tables are
ordered lexicographically with +1 before -1, so row index bits read qubit 1
first with bit 0 meaning +1; subset masks are integers whose bit (l-1)
selects qubit l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_array, check_int, read_only
from ._rng import make_rng, seed_sequence
from .trace_model import DesignBatch, Observations

__all__ = [
    "TomographyDataset",
    "gen_random_settings",
    "gen_density_matrix",
    "simulate_dataset",
]

_PAULI = (
    np.eye(2, dtype=np.complex128),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)

_ISQRT2 = 1.0 / math.sqrt(2.0)
# entry s has as columns the +1 and -1 eigenvectors of Pauli s; an identity
# qubit (s = 0) takes Z's
_EIGVECS = np.array([
    np.eye(2),
    [[_ISQRT2, _ISQRT2], [_ISQRT2, -_ISQRT2]],
    [[_ISQRT2, _ISQRT2], [1.0j * _ISQRT2, -1.0j * _ISQRT2]],
    np.eye(2),
], dtype=np.complex128)

def outcome_table(m: int) -> np.ndarray:
    """All 2^m sign vectors in lexicographic order (+1 sorts before -1).

    Row i spells out the bits of i from qubit 1 down, bit 0 meaning +1, so
    row 0 is all +1 and row 2^m - 1 is all -1.
    """
    m = check_int(m, "m")
    idx = np.arange(2 ** m)
    bits = (idx[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int64)


def _check_density(theta: np.ndarray) -> np.ndarray:
    theta = check_array(theta, "theta", (None, None), np.complex128)
    if theta.shape[0] != theta.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {theta.shape}")
    herm_gap = float(np.max(np.abs(theta - theta.conj().T)))
    if herm_gap > 1e-10:
        raise ValueError(f"density matrix not Hermitian (max asymmetry {herm_gap:.3e})")
    tr = complex(np.trace(theta))
    eigs = np.linalg.eigvalsh((theta + theta.conj().T) / 2.0)
    if abs(tr - 1.0) > 1e-8 or eigs[0] < -1e-8:
        raise ValueError(
            f"not a density matrix: trace={tr.real:.12g}, min eigenvalue={eigs[0]:.3e}")
    return theta


def _kron_rows(factors: np.ndarray) -> np.ndarray:
    """(N, 2^m, 2^m) Kronecker products of (N, m, 2, 2) factors, taken one
    qubit at a time over all N rows, qubit 1 leftmost: row i has the bits of
    reduce(np.kron, factors[i]). Each qubit multiplies into a new array, so
    the rows returned own their data."""
    count, m = factors.shape[:2]
    rows = factors[:, 0]
    for q in range(1, m):
        side, prev = 2 ** q, rows
        rows = np.empty((count, 2 * side, 2 * side), dtype=prev.dtype)
        np.multiply(prev[:, :, None, :, None], factors[:, q, None, :, None, :],
                    out=rows.reshape(count, side, 2, side, 2))
    return rows.copy() if m == 1 else rows


def _rotations(settings: np.ndarray) -> np.ndarray:
    """(N, 2^m, 2^m) joint eigenbases of an (N, m) settings array."""
    return _kron_rows(_EIGVECS[settings])


# Size of each (settings, d, d) complex temporary of _outcome_distributions:
# the rotations are built and multiplied a block of settings at a time.
_BLOCK_BYTES = 1 << 19


def _outcome_distributions(settings: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(N, 2^m) outcome probabilities, in outcome_table order, of an (N, m)
    settings array of codes 1-3 and a theta that already passed _check_density.

    Each block of settings takes one stacked u^H theta u product (theta in
    the settings' joint eigenbases), whose diagonals have the bits of the
    one-setting 2-D product.
    """
    m = settings.shape[1]
    d = 2 ** m
    if theta.shape[0] != d:
        raise ValueError(f"density matrix is {theta.shape[0]}x{theta.shape[0]}, "
                         f"setting has {m} qubits")
    step = max(1, _BLOCK_BYTES // (16 * d * d))
    p = np.empty((len(settings), d))
    for start in range(0, len(settings), step):
        u = _rotations(settings[start:start + step])
        rotated = u.conj().transpose(0, 2, 1) @ theta @ u
        p[start:start + step] = rotated.diagonal(axis1=1, axis2=2).real
    p[(p < 0) & (p > -1e-10)] = 0.0
    negative = np.flatnonzero((p < 0).any(axis=1))
    if negative.size:
        raise ValueError(f"outcome probability {p[negative[0]].min():.3e} below tolerance")
    totals = p.sum(axis=1)
    off = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-8))
    if off.size:
        raise ValueError(f"outcome probabilities sum to {totals[off[0]]:.12g}")
    return p / totals[:, None]


def _draw_outcomes(p: np.ndarray, repetitions: int, seed) -> np.ndarray:
    """T outcome_table row indices drawn by inverse CDF over one setting's
    distribution p."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, make_rng(seed).random(repetitions), side="right")
    return np.minimum(idx, p.size - 1, out=idx)


def gen_random_settings(count: int, m: int, seed) -> np.ndarray:
    """(count, m) read-only settings array of i.i.d. uniform X/Y/Z codes."""
    count, m = check_int(count, "count"), check_int(m, "m")
    return read_only(make_rng(seed).integers(1, 4, size=(count, m)))


def gen_density_matrix(d: int, k: int, seed) -> np.ndarray:
    """Random rank-k density matrix G G^H / tr(G G^H), G complex Gaussian d x k."""
    d, k = check_int(d, "d", None), check_int(k, "k", None)
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    rng = make_rng(seed)
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    theta = g @ g.conj().T
    theta = (theta + theta.conj().T) / 2.0
    return theta / np.trace(theta).real


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """Rescaled (observation, Pauli-word design) rows, N * 2^m of them.

    Row (i, E) pairs y = c_E * mean parity of the E-marginalized outcomes of
    setting i with the design matrix c_E * (Pauli word of the setting with
    identities at E), where c_E = sqrt(d) * 3^(-|E|/2) * (3/4)^(m/2). Rows are
    ordered by (setting index, subset mask). Only the (N, m) settings array
    (codes 0-3) and y are stored; ``to_trace_regression`` builds the rows.
    """

    settings: np.ndarray
    repetitions: int
    y: np.ndarray

    def __post_init__(self):
        settings = check_array(self.settings, "settings", (None, None), np.int64)
        if settings.size == 0:
            raise ValueError(f"settings must not be empty, got shape {settings.shape}")
        outside = settings[(settings < 0) | (settings > 3)]
        if outside.size:
            raise ValueError(f"settings must be in [0, 4), got {outside[0]}")
        object.__setattr__(self, "settings", read_only(settings))
        y = check_array(self.y, "y", (settings.shape[0] * 2 ** self.m,))
        object.__setattr__(self, "y", read_only(y))
        object.__setattr__(self, "repetitions", check_int(self.repetitions, "repetitions"))

    @property
    def m(self) -> int:
        return self.settings.shape[1]

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def to_trace_regression(self) -> tuple[DesignBatch, Observations]:
        """Build the (n, d, d) design and repackage for the estimator, scaled
        so 1/n is the right weight.

        Each word is a Kronecker product taken one qubit at a time over all
        rows, qubit 1 leftmost. The subset rescaling makes each setting's 2^m
        rows carry total unit energy on average, so the natural normalizer is
        the number of settings. The estimator divides by the total row count
        instead, which is 2^m times larger; multiplying y and the rows by
        2^(m/2) makes the two conventions agree and restores the
        near-isometry. Word entries are 0 or of unit modulus, so one multiply
        by c_E * 2^(m/2) has the bits of scaling by c_E, then by 2^(m/2).
        """
        boost = 2.0 ** (self.m / 2.0)
        words = np.where(_subset_drops(self.m), 0, self.settings[:, None, :]).reshape(self.n, -1)
        rows = _kron_rows(np.array(_PAULI)[words])
        rows *= np.tile(_subset_scales(self.m) * boost, len(self.settings))[:, None, None]
        return DesignBatch(rows), Observations(values=self.y * boost)


def _subset_drops(m: int) -> np.ndarray:
    """(2^m, m) booleans: row E marks the qubits subset mask E drops."""
    return ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1).astype(bool)


def _subset_scales(m: int) -> np.ndarray:
    sizes = _subset_drops(m).sum(axis=1)
    return math.sqrt(2 ** m) * (3.0 ** (-sizes / 2.0)) * (3.0 / 4.0) ** (m / 2.0)


def _rescaled_y(m: int, counts: np.ndarray, repetitions: int) -> np.ndarray:
    """The rows' y from (N, 2^m) per-setting outcome counts.

    Row (i, E) is c_E * k / T, where k is the sum of the E-marginalized
    parities over setting i's T outcomes. k is summed in integers through
    the 2^m x 2^m table of each outcome's parity under each mask, so it is
    exact, and k / T has the bits of the mean of the T parities. y owns its
    data, so the dataset holds it without a copy.
    """
    drops = _subset_drops(m)[:, None, :]
    parities = np.where(drops, 1, outcome_table(m)).prod(axis=2)
    y = np.empty(counts.size)
    np.multiply(counts @ parities.T / repetitions, _subset_scales(m), out=y.reshape(counts.shape))
    return y


def simulate_dataset(theta, n_settings: int, repetitions: int, seed) -> TomographyDataset:
    """Sample settings, measure, and assemble the dataset in one call.

    Per-setting sampling seeds are spawned from the master seed, so settings
    could be simulated in parallel without changing the result. theta is
    validated once here, not once per setting. The settings' outcome
    distributions come from batched rotations, each setting keeps only the
    count of each outcome, and the rows' y are formed from the counts; the
    result has the bits of drawing each setting's T outcome vectors by
    inverse CDF and averaging their marginalized parities one setting at a
    time.
    """
    n_settings = check_int(n_settings, "n_settings")
    repetitions = check_int(repetitions, "repetitions")
    theta = _check_density(theta)
    d = theta.shape[0]
    m = int(round(math.log2(d)))
    if 2 ** m != d:
        raise ValueError(f"density matrix dimension {d} is not a power of two")
    setting_seed, *sample_seeds = seed_sequence(seed).spawn(n_settings + 1)
    settings = gen_random_settings(n_settings, m, setting_seed)
    counts = np.empty((n_settings, d), dtype=np.int64)
    for row, p, child in zip(counts, _outcome_distributions(settings, theta), sample_seeds):
        row[:] = np.bincount(_draw_outcomes(p, repetitions, child), minlength=d)
    return TomographyDataset(settings=settings, repetitions=repetitions,
                             y=_rescaled_y(m, counts, repetitions))
