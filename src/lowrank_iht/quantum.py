"""Multi-qubit Pauli measurement simulator.

Measuring m qubits in a Pauli basis per qubit yields a sign vector in
{+1,-1}^m whose distribution is governed by the density matrix. Averaging
parities of outcome vectors marginalized over every qubit subset turns N
measurement settings into N * 2^m trace-regression rows whose design matrices
are rescaled Pauli words, which is the form the low-rank estimator consumes.
A dataset keeps only the settings and the observations; each design row is
fixed by its setting and subset, so the dense rows are built when asked for.
On disk it is one CSV manifest of the same two things (``save_dataset``,
``load_dataset``), which the loader checks column by column.

Conventions fixed here (they have to be fixed somewhere for byte-stable
datasets): qubit 1 is the leftmost Kronecker factor; outcome tables are
ordered lexicographically with +1 before -1, so row index bits read qubit 1
first with bit 0 meaning +1; subset masks are integers whose bit (l-1)
selects qubit l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._rng import make_rng
from .trace_model import DesignBatch, Observations

__all__ = [
    "PauliSetting",
    "OutcomeBatch",
    "TomographyDataset",
    "pauli_matrix",
    "eigenprojector",
    "setting_projector",
    "outcome_table",
    "outcome_distribution",
    "sample_outcomes",
    "parity",
    "marginalize",
    "gen_random_settings",
    "gen_density_matrix",
    "build_rescaled_dataset",
    "simulate_dataset",
    "save_dataset",
    "load_dataset",
]

_PAULI = (
    np.eye(2, dtype=np.complex128),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)

_ISQRT2 = 1.0 / math.sqrt(2.0)
# columns are the +1 and -1 eigenvectors of the indexed Pauli
_EIGVECS = {
    1: np.array([[_ISQRT2, _ISQRT2], [_ISQRT2, -_ISQRT2]], dtype=np.complex128),
    2: np.array([[_ISQRT2, _ISQRT2], [1.0j * _ISQRT2, -1.0j * _ISQRT2]], dtype=np.complex128),
    3: np.eye(2, dtype=np.complex128),
}

_LETTER = {0: "I", 1: "X", 2: "Y", 3: "Z"}
_INDEX = {v: k for k, v in _LETTER.items()}


def pauli_matrix(idx: int) -> np.ndarray:
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


@dataclass(frozen=True)
class PauliSetting:
    """One measurement basis per qubit, index 1/2/3 = X/Y/Z.

    Index 0 (identity) only appears in settings derived by marginalization.
    """

    qubits: tuple[int, ...]

    def __post_init__(self):
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) < 1:
            raise ValueError("a setting needs at least one qubit")
        if any(q not in (0, 1, 2, 3) for q in qubits):
            raise ValueError(f"qubit indices must be 0..3: {qubits}")
        object.__setattr__(self, "qubits", qubits)

    @property
    def m(self) -> int:
        return len(self.qubits)

    @property
    def label(self) -> str:
        return "".join(_LETTER[q] for q in self.qubits)

    @classmethod
    def from_label(cls, label: str) -> "PauliSetting":
        try:
            return cls(tuple(_INDEX[ch] for ch in label.upper()))
        except KeyError as exc:
            raise ValueError(f"unknown Pauli letter in {label!r}") from exc


@dataclass(frozen=True)
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


def outcome_table(m: int) -> np.ndarray:
    """All 2^m sign vectors in lexicographic order (+1 sorts before -1).

    Row i spells out the bits of i from qubit 1 down, bit 0 meaning +1, so
    row 0 is all +1 and row 2^m - 1 is all -1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    idx = np.arange(2 ** m)
    bits = (idx[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int64)


def _check_density(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.complex128)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValueError("density matrix must be square")
    herm_gap = float(np.max(np.abs(theta - theta.conj().T)))
    if herm_gap > 1e-10:
        raise ValueError(f"density matrix not Hermitian (max asymmetry {herm_gap:.3e})")
    tr = complex(np.trace(theta))
    eigs = np.linalg.eigvalsh((theta + theta.conj().T) / 2.0)
    if abs(tr - 1.0) > 1e-8 or eigs[0] < -1e-8:
        raise ValueError(
            f"not a density matrix: trace={tr.real:.12g}, min eigenvalue={eigs[0]:.3e}")
    return theta


def outcome_distribution(setting: PauliSetting, theta) -> np.ndarray:
    """Probability of each of the 2^m outcomes, in outcome_table order.

    Computed by rotating the density matrix into the joint eigenbasis of the
    setting (a Kronecker product of 2x2 eigenvector matrices) and reading the
    diagonal, rather than forming 2^m projectors. Identity qubits put all
    their mass on +1.
    """
    theta = _check_density(theta)
    m = setting.m
    if theta.shape[0] != 2 ** m:
        raise ValueError(f"density matrix is {theta.shape[0]}x{theta.shape[0]}, "
                         f"setting has {m} qubits")
    u = reduce(np.kron, [_EIGVECS[s] if s != 0 else _EIGVECS[3]
                         for s in setting.qubits])
    rotated = u.conj().T @ theta @ u
    p = np.real(np.diag(rotated)).copy()
    if any(s == 0 for s in setting.qubits):
        p = p.reshape((2,) * m)
        for axis, s in enumerate(setting.qubits):
            if s == 0:
                merged = p.sum(axis=axis, keepdims=True)
                p = np.concatenate([merged, np.zeros_like(merged)], axis=axis)
        p = p.ravel()
    p[(p < 0) & (p > -1e-10)] = 0.0
    if np.any(p < 0):
        raise ValueError(f"outcome probability {p.min():.3e} below tolerance")
    total = p.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        raise ValueError(f"outcome probabilities sum to {total:.12g}")
    return p / total


def sample_outcomes(setting: PauliSetting, theta, repetitions: int, seed) -> OutcomeBatch:
    """T i.i.d. outcome vectors drawn by inverse CDF over the ordered table."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    p = outcome_distribution(setting, theta)
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    rng = make_rng(seed)
    draws = rng.random(repetitions)
    idx = np.searchsorted(cdf, draws, side="right")
    np.clip(idx, 0, p.size - 1, out=idx)
    return OutcomeBatch(setting=setting, outcomes=outcome_table(setting.m)[idx])


def parity(outcome) -> np.ndarray:
    """Product of the per-qubit signs; last axis is the qubit axis."""
    arr = np.asarray(outcome)
    return arr.prod(axis=-1)


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


def gen_random_settings(count: int, m: int, seed) -> list[PauliSetting]:
    """count settings with i.i.d. uniform X/Y/Z per qubit."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = make_rng(seed)
    draws = rng.integers(1, 4, size=(count, m))
    return [PauliSetting(tuple(int(q) for q in row)) for row in draws]


def gen_density_matrix(d: int, k: int, seed) -> np.ndarray:
    """Random rank-k density matrix G G^H / tr(G G^H), G complex Gaussian d x k."""
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    rng = make_rng(seed)
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    theta = g @ g.conj().T
    theta = (theta + theta.conj().T) / 2.0
    return theta / np.trace(theta).real


@dataclass(frozen=True)
class TomographyDataset:
    """Rescaled (observation, Pauli-word design) rows, N * 2^m of them.

    Row (i, E) pairs y = c_E * mean parity of the E-marginalized outcomes of
    setting i with the design matrix c_E * (Pauli word of the setting with
    identities at E), where c_E = sqrt(d) * 3^(-|E|/2) * (3/4)^(m/2). Rows are
    ordered by (setting index, subset mask). Only the settings and y are
    stored; ``designs`` builds the dense rows from them on each access.
    """

    m: int
    settings: tuple[PauliSetting, ...]
    repetitions: int
    y: np.ndarray

    def __post_init__(self):
        settings = tuple(self.settings)
        if not settings or any(s.m != self.m for s in settings):
            raise ValueError(f"need at least one setting, each with m={self.m} qubits")
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (len(settings) * 2 ** self.m,):
            raise ValueError("row count must be settings x 2^m")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "settings", settings)

    @property
    def d(self) -> int:
        return 2 ** self.m

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def designs(self) -> np.ndarray:
        """The (n, d, d) rows, freshly built: each word is a Kronecker product
        taken one qubit at a time over all rows, qubit 1 leftmost, then the
        rows are scaled by c_E."""
        qubits = np.array([s.qubits for s in self.settings])
        words = np.where(_subset_drops(self.m), 0, qubits[:, None, :]).reshape(self.n, self.m)
        paulis = np.array(_PAULI)
        rows = paulis[words[:, 0]]
        for q in range(1, self.m):
            side = 2 ** (q + 1)
            rows = (rows[:, :, None, :, None]
                    * paulis[words[:, q]][:, None, :, None, :]).reshape(self.n, side, side)
        rows *= np.tile(_subset_scales(self.m), len(self.settings))[:, None, None]
        return rows

    def to_trace_regression(self) -> tuple[DesignBatch, Observations]:
        """Repackage for the estimator, scaled so 1/n is the right weight.

        The subset rescaling makes each setting's 2^m rows carry total unit
        energy on average, so the natural normalizer is the number of
        settings. The estimator divides by the total row count instead, which
        is 2^m times larger; multiplying y and designs by 2^(m/2) makes the
        two conventions agree and restores the near-isometry.
        """
        boost = 2.0 ** (self.m / 2.0)
        rows = self.designs
        rows *= boost
        return DesignBatch(rows), Observations(values=self.y * boost)


def _subset_drops(m: int) -> np.ndarray:
    """(2^m, m) booleans: row E marks the qubits subset mask E drops."""
    return ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1).astype(bool)


def _subset_scales(m: int) -> np.ndarray:
    d = 2 ** m
    masks = np.arange(2 ** m)
    sizes = np.array([bin(int(mask)).count("1") for mask in masks])
    return math.sqrt(d) * (3.0 ** (-sizes / 2.0)) * (3.0 / 4.0) ** (m / 2.0)


def build_rescaled_dataset(settings, batches) -> TomographyDataset:
    """Assemble the trace-regression rows from raw per-setting outcomes."""
    settings = tuple(settings)
    batches = tuple(batches)
    if len(settings) != len(batches):
        raise ValueError("one outcome batch per setting required")
    if not settings:
        raise ValueError("need at least one setting")
    m = settings[0].m
    drops = _subset_drops(m)[:, None, :]
    ybars = []
    for setting, batch in zip(settings, batches):
        if batch.setting != setting:
            raise ValueError("outcome batch does not belong to its setting")
        if setting.m != m:
            raise ValueError("all settings must share the same qubit count")
        # (2^m, T) parities of every subset-marginalized outcome
        ybars.append(np.where(drops, 1, batch.outcomes).prod(axis=2).mean(axis=1))
    y = (np.array(ybars) * _subset_scales(m)).ravel()
    return TomographyDataset(m=m, settings=settings,
                             repetitions=batches[0].repetitions, y=y)


def simulate_dataset(theta, n_settings: int, repetitions: int, seed) -> TomographyDataset:
    """Sample settings, measure, and assemble the dataset in one call.

    Per-setting sampling seeds are spawned from the master seed, so settings
    could be simulated in parallel without changing the result.
    """
    theta = _check_density(theta)
    d = theta.shape[0]
    m = int(round(math.log2(d)))
    if 2 ** m != d:
        raise ValueError(f"density matrix dimension {d} is not a power of two")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    setting_seed, *sample_seeds = root.spawn(n_settings + 1)
    settings = gen_random_settings(n_settings, m, setting_seed)
    batches = [sample_outcomes(s, theta, repetitions, child)
               for s, child in zip(settings, sample_seeds)]
    return build_rescaled_dataset(settings, batches)


_MANIFEST_COLUMNS = "setting_index,setting_string,subset_mask,y_value"


def save_dataset(dataset: TomographyDataset, path):
    """Write the dataset as its CSV manifest, the only form it takes on disk.

    A ``# repetitions=T`` line and the column header come first, then one
    line per row in (setting_index, subset_mask) order. No design row is
    written, since each is fixed by its setting and mask. ``y_value`` is
    ``repr(float(v))``, which reads back bit for bit.
    """
    per = dataset.d
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# repetitions={dataset.repetitions}\n{_MANIFEST_COLUMNS}\n")
        for row, value in enumerate(dataset.y.tolist()):
            setting = row // per
            fh.write(f"{setting},{dataset.settings[setting].label},{row % per},{value!r}\n")


def load_dataset(path) -> TomographyDataset:
    """Read a manifest written by :func:`save_dataset`, checking every column.

    Rows must come in (setting_index, subset_mask) order: settings numbered
    from 0, masks 0..2^m-1 under each, one label of m qubits per setting.
    Each y_value must be a finite float literal equal to c_E * k / T for an
    integer k with |k| <= T and k = T mod 2: c_E times a mean of T parities,
    rounded as build_rescaled_dataset rounds it, so a hand-edited value is
    caught too. This holds when every setting was measured T times, as in
    simulate_dataset. Any violation raises ValueError naming the line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    def bad(lineno, message):
        return ValueError(f"{path} line {lineno}: {message}")

    head = lines[0] if lines else ""
    reps = head.removeprefix("# repetitions=")
    if reps == head or not reps.isdecimal() or int(reps) < 1:
        raise bad(1, f"expected '# repetitions=T' with T >= 1, got {head!r}")
    reps = int(reps)
    if lines[1:2] != [_MANIFEST_COLUMNS]:
        raise bad(2, f"expected the header {_MANIFEST_COLUMNS!r}")
    settings, values = [], []
    for row, line in enumerate(lines[2:]):
        lineno = row + 3
        fields = line.split(",")
        if len(fields) != 4:
            raise bad(lineno, f"expected 4 fields, got {len(fields)}")
        index, label, mask, value = fields
        if row == 0:
            m = len(label)
        setting, subset = divmod(row, 2 ** m)
        if (index, mask) != (str(setting), str(subset)):
            raise bad(lineno, f"expected setting_index {setting} and subset_mask {subset}, "
                              f"got {index!r} and {mask!r}")
        if subset == 0:
            try:
                settings.append(PauliSetting.from_label(label))
            except ValueError as exc:
                raise bad(lineno, str(exc)) from None
        if len(label) != m:
            raise bad(lineno, f"label {label!r} has {len(label)} qubits, not {m}")
        if label != settings[-1].label:
            raise bad(lineno, f"setting_index {setting} has two labels, "
                              f"{settings[-1].label!r} and {label!r}")
        try:
            values.append(float(value))
        except ValueError:
            raise bad(lineno, f"y_value {value!r} is not a float literal") from None
    if not settings:
        raise bad(3, "the manifest has no rows")
    if len(values) % 2 ** m:
        raise bad(len(lines), f"setting_index {len(settings) - 1} has "
                              f"{len(values) % 2 ** m} of its {2 ** m} rows")
    y = np.array(values)
    scales = np.tile(_subset_scales(m), len(settings))
    with np.errstate(all="ignore"):
        k = np.rint(y / scales * reps)
        off = (np.abs(k) > reps) | ((k - reps) % 2 != 0) | (k / reps * scales != y)
    if off.any():
        row = int(np.argmax(off))
        raise bad(row + 3, f"y_value {values[row]!r} is not c_E * k / {reps} "
                           f"with |k| <= {reps} and k = {reps} mod 2")
    return TomographyDataset(m=m, settings=tuple(settings), repetitions=reps, y=y)
