"""Reference implementations of the paper's identities, used only by tests.

Each function here is a direct, unoptimised statement of a definition the
estimator relies on: Pauli matrices and their eigenprojectors, the parity
of an outcome, outcome marginalization, tomography sampled one setting at a time (as one-line
parity means, and as outcome batches assembled into a dataset), Schatten
norms, the restricted singular-value bound, the Monte-Carlo
restricted-isometry probe, the one-step debiasing of both estimators on its
own, the sparse r_K supremum and the desparsified error split. Tests compare the package's
production code against them, or measure its designs with them; the package
itself never calls them, so they are kept out of its public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from lowrank_iht._checks import check_array, check_float, check_int
from lowrank_iht.linalg import _as_matrix, _singular_values
from lowrank_iht._rng import make_rng
from lowrank_iht.quantum import (
    _EIGVECS,
    _PAULI,
    PauliSetting,
    TomographyDataset,
    _check_density,
    _draw_outcomes,
    _outcome_distributions,
    _rescaled_y,
    _subset_scales,
    gen_random_settings,
    outcome_table,
)
from lowrank_iht.sparse import (
    Decorrelator,
    SparseInstance,
    _check_decorrelator,
    _top_k_row_sum,
)
from lowrank_iht.trace_model import DesignBatch, _obs_values, adjoint_apply, apply_design


# -- quantum ---------------------------------------------------------------

def pauli_matrix(idx: int) -> np.ndarray:
    """Pauli matrix I, X, Y or Z for index 0..3."""
    if idx not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {idx}")
    return _PAULI[idx].copy()


def eigenprojector(s: int, o: int) -> np.ndarray:
    """Rank-one projector (I + o * sigma_s) / 2 onto the o-eigenspace."""
    if s not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1..3, got {s}")
    if o not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {o}")
    return (np.eye(2, dtype=np.complex128) + o * _PAULI[s]) / 2.0


def setting_projector(setting: PauliSetting, outcome) -> np.ndarray:
    """Kronecker product of per-qubit eigenprojectors, qubit 1 leftmost.

    Index-0 qubits contribute the identity factor (their outcome is fixed at
    +1 by convention and the supplied entry is ignored).
    """
    outcome = tuple(int(o) for o in outcome)
    if len(outcome) != setting.m:
        raise ValueError("outcome length does not match the setting")
    factors = []
    for s, o in zip(setting.qubits, outcome):
        if s == 0:
            factors.append(np.eye(2, dtype=np.complex128))
        else:
            factors.append(eigenprojector(s, o))
    return reduce(np.kron, factors)


def parity(outcome) -> np.ndarray:
    """Product of the per-qubit signs; last axis is the qubit axis."""
    return np.asarray(outcome).prod(axis=-1)


def _as_mask(subset, m: int) -> int:
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if not 0 <= mask < 2 ** m:
            raise ValueError(f"subset mask {mask} out of range for m={m}")
        return mask
    mask = 0
    for q in subset:
        q = int(q)
        if not 1 <= q <= m:
            raise ValueError(f"qubit {q} outside 1..{m}")
        mask |= 1 << (q - 1)
    return mask


def marginalize(setting: PauliSetting, outcome, subset):
    """Replace the qubits in the subset by identity / forced +1.

    The resulting pair describes what measuring the reduced setting directly
    would have produced; marginal distributions agree exactly.
    """
    mask = _as_mask(subset, setting.m)
    outcome = tuple(int(o) for o in outcome)
    if len(outcome) != setting.m:
        raise ValueError("outcome length does not match the setting")
    qubits = tuple(0 if (mask >> i) & 1 else s for i, s in enumerate(setting.qubits))
    new_outcome = tuple(1 if (mask >> i) & 1 else o for i, o in enumerate(outcome))
    return PauliSetting(qubits), new_outcome


def simulate_dataset_per_setting(theta, n_settings: int, repetitions: int, seed):
    """(settings, y) of ``quantum.simulate_dataset``, one setting at a time.

    With the seeds simulate_dataset spawns, each setting rotates theta into
    the Kronecker product of its eigenbases (u^H theta u, one 2-D product),
    draws T outcome vectors by inverse CDF over the diagonal, and averages
    the parity of the outcomes marginalized over every subset E, scaled by
    c_E. Settings have no identity qubits, so no mass is merged.
    """
    theta = np.asarray(theta, dtype=np.complex128)
    m = int(round(math.log2(theta.shape[0])))
    setting_seed, *sample_seeds = np.random.SeedSequence(seed).spawn(n_settings + 1)
    settings = gen_random_settings(n_settings, m, setting_seed)
    table, scales = outcome_table(m), _subset_scales(m)
    y = []
    for setting, child in zip(settings, sample_seeds):
        u = reduce(np.kron, [_EIGVECS[s] for s in setting.qubits])
        p = np.real(np.diag(u.conj().T @ theta @ u)).copy()
        p[(p < 0) & (p > -1e-10)] = 0.0
        p = p / p.sum()
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, make_rng(child).random(repetitions), side="right")
        outcomes = table[np.clip(idx, 0, p.size - 1)]
        for mask in range(2 ** m):
            keep = [q for q in range(m) if not (mask >> q) & 1]
            ybar = float(outcomes[:, keep].prod(axis=1).mean()) if keep else 1.0
            y.append(scales[mask] * ybar)
    return settings, np.array(y)


@dataclass(frozen=True, eq=False)
class OutcomeBatch:
    """T repeated sign vectors observed under one setting."""

    setting: PauliSetting
    outcomes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.outcomes, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.setting.m:
            raise ValueError("outcomes must be (T, m) for the setting's m")
        if arr.shape[0] < 1:
            raise ValueError("need at least one repetition")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("outcome entries must be +1 or -1")
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)

    @property
    def repetitions(self) -> int:
        return self.outcomes.shape[0]


def sample_outcomes(setting: PauliSetting, theta, repetitions: int, seed) -> OutcomeBatch:
    """T i.i.d. outcome vectors drawn by inverse CDF over the ordered table."""
    repetitions = check_int(repetitions, "repetitions")
    p = _outcome_distributions((setting,), _check_density(theta))[0]
    idx = _draw_outcomes(p, repetitions, seed)
    return OutcomeBatch(setting=setting, outcomes=outcome_table(setting.m)[idx])


def build_rescaled_dataset(settings, batches) -> TomographyDataset:
    """Assemble the trace-regression rows from raw per-setting outcomes."""
    settings = tuple(settings)
    batches = tuple(batches)
    if len(settings) != len(batches):
        raise ValueError("one outcome batch per setting required")
    if not settings:
        raise ValueError("need at least one setting")
    m = settings[0].m
    repetitions = batches[0].repetitions
    # outcome_table row index of each outcome: bit m - q set when qubit q read -1
    weights = 1 << np.arange(m - 1, -1, -1)
    counts = np.empty((len(settings), 2 ** m), dtype=np.int64)
    for row, setting, batch in zip(counts, settings, batches):
        if batch.setting != setting:
            raise ValueError("outcome batch does not belong to its setting")
        if setting.m != m:
            raise ValueError("all settings must share the same qubit count")
        if batch.repetitions != repetitions:
            raise ValueError("all settings must be measured the same number of times")
        row[:] = np.bincount((batch.outcomes < 0) @ weights, minlength=2 ** m)
    return TomographyDataset(m=m, settings=settings, repetitions=repetitions,
                             y=_rescaled_y(m, counts, repetitions))


# -- linalg ----------------------------------------------------------------

def schatten_norm(a, p) -> float:
    """Schatten p-norm from singular values; ``p="operator"`` selects the
    largest singular value. ``p`` must be a finite real > 0 (p=2 is
    Frobenius, p=1 the nuclear norm)."""
    s = _singular_values(a)
    if isinstance(p, str):
        if p == "operator":
            return float(s[0]) if s.size else 0.0
        raise ValueError(f"unknown norm selector {p!r}")
    p = check_float(p, "p", strict=True)
    return float(np.sum(s ** p) ** (1.0 / p))


def _stack_vectors(vectors, dim: int) -> np.ndarray:
    rows = []
    for w in vectors:
        w = np.asarray(w)
        if w.ndim != 1 or w.shape[0] != dim:
            raise ValueError("each vector must be 1-D of matching dimension")
        rows.append(w)
    if not rows:
        return np.zeros((0, dim))
    return np.stack(rows)


def restricted_singular_bound(m, vectors) -> float:
    """sup over unit u orthogonal to ``vectors`` and unit v of |u^H m v|.

    Evaluated by projecting the rows of ``m`` onto the orthogonal complement of
    span(vectors) and taking the operator norm. ``vectors`` must be
    orthonormal (checked to 1e-8).
    """
    m = _as_matrix(m)
    w = _stack_vectors(vectors, m.shape[0])
    if w.shape[0]:
        gram = w.conj() @ w.T
        if np.max(np.abs(gram - np.eye(w.shape[0]))) > 1e-8:
            raise ValueError("constraint vectors must be orthonormal")
        m = m - w.conj().T @ (w @ m)
    return schatten_norm(m, "operator")


def restricted_singular_bound_check(m, j: int, vectors) -> bool:
    """Check that the j-th singular value of ``m`` is bounded by the
    restricted supremum over ``j - 1`` orthogonal directions (with 1e-8
    numerical slack). Requires ``len(vectors) == j - 1``."""
    m = _as_matrix(m)
    s = _singular_values(m)
    if not 1 <= j <= s.size:
        raise ValueError(f"j must be in [1, {s.size}]")
    vectors = list(vectors)
    if len(vectors) != j - 1:
        raise ValueError(f"need exactly {j - 1} constraint vectors for j={j}")
    return bool(s[j - 1] <= restricted_singular_bound(m, vectors) + 1e-8)


# -- trace_model -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RipEstimate:
    """Monte-Carlo lower estimate of the restricted-isometry deviation at a
    given rank. ``max_deviation`` only certifies the probed directions; the
    true supremum can be larger."""

    k: int
    trials: int
    max_deviation: float
    deviations: np.ndarray = field(repr=False)


def isometry_deviation(batch: DesignBatch, a) -> float:
    """Relative isometry deviation |(1/n)||X(a)||^2 - ||a||_F^2| / ||a||_F^2."""
    a = np.asarray(a)
    fro2 = float(np.sum(np.abs(a) ** 2))
    if fro2 == 0.0:
        raise ValueError("cannot probe with the zero matrix")
    va = apply_design(batch, a)
    return abs(float(va @ va) / batch.n - fro2) / fro2


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


# -- inference -------------------------------------------------------------

def debias(batch: DesignBatch, y, theta_hat: np.ndarray) -> np.ndarray:
    """One-step bias correction theta_hat + adjoint(y - X(theta_hat))."""
    values = _obs_values(y, batch.n)
    resid = values - apply_design(batch, theta_hat)
    return theta_hat + adjoint_apply(batch, resid)


# -- sparse ----------------------------------------------------------------

def estimate_r_k(v: np.ndarray, sigma_hat: np.ndarray, k: int) -> float:
    """Exact sup over k-sparse sign vectors u of ||(V Sigma - I) u||_inf.

    The supremum is attained at u = +-1 on the k columns with the largest
    |entries| of some row of M = V Sigma - I, so it equals the max over rows
    of the sum of the k largest absolute entries.
    """
    v = np.asarray(v, dtype=np.float64)
    sigma_hat = np.asarray(sigma_hat, dtype=np.float64)
    return _top_k_row_sum(np.abs(v @ sigma_hat - np.eye(sigma_hat.shape[0])), k)


def desparsify(theta_hat_r: np.ndarray, instance: SparseInstance,
               dec: Decorrelator) -> np.ndarray:
    """One unthresholded correction theta + (1/n) V X^T (Y - X theta)."""
    _check_decorrelator(dec, instance)
    theta_hat_r = check_array(theta_hat_r, "estimate", (instance.p,))
    resid = instance.y - instance.x @ theta_hat_r
    return theta_hat_r + dec.apply(instance.x.T @ resid) / instance.n


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
    remainder = root_n * (diff - dec.apply(dec.sigma_hat @ diff))
    noise_term = dec.apply(instance.x.T @ instance.realized_noise) / root_n
    total = root_n * (desparsify(theta_hat_r, instance, dec) - instance.theta_truth)
    return remainder, noise_term, total
