import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from lowrank_iht.quantum import (
    OutcomeBatch,
    PauliSetting,
    TomographyDataset,
    _subset_scales,
    build_rescaled_dataset,
    eigenprojector,
    gen_density_matrix,
    gen_random_settings,
    load_dataset,
    marginalize,
    outcome_distribution,
    outcome_table,
    parity,
    pauli_matrix,
    sample_outcomes,
    save_dataset,
    setting_projector,
    simulate_dataset,
)
from lowrank_iht.trace_model import DesignBatch, apply_design, isometry_deviation


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _projector_oracle(setting, outcome):
    # direct Kronecker build from the textbook 2x2 projectors
    factors = []
    for s, o in zip(setting.qubits, outcome):
        if s == 0:
            factors.append(np.eye(2, dtype=complex))
        else:
            sigma = {1: SX, 2: SY, 3: SZ}[s]
            factors.append((np.eye(2) + o * sigma) / 2.0)
    return reduce(np.kron, factors)


def test_pauli_matrices_exact():
    assert np.array_equal(pauli_matrix(0), np.eye(2))
    assert np.array_equal(pauli_matrix(1), SX)
    assert np.array_equal(pauli_matrix(2), SY)
    assert np.array_equal(pauli_matrix(3), SZ)
    for idx in (1, 2, 3):
        sigma = pauli_matrix(idx)
        assert np.allclose(sigma @ sigma, np.eye(2), atol=1e-15)
        assert np.trace(sigma) == 0
        assert np.allclose(sigma, sigma.conj().T, atol=1e-15)
    with pytest.raises(ValueError):
        pauli_matrix(4)


def test_eigenprojector_examples():
    assert np.allclose(eigenprojector(1, 1),
                       np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-15)
    assert np.allclose(eigenprojector(3, 1), np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(eigenprojector(3, -1), np.diag([0.0, 1.0]), atol=1e-15)
    assert np.allclose(eigenprojector(2, -1),
                       np.array([[0.5, 0.5j], [-0.5j, 0.5]]), atol=1e-15)
    for s in (1, 2, 3):
        for o in (1, -1):
            p = eigenprojector(s, o)
            assert np.allclose(p @ p, p, atol=1e-15)
            assert np.trace(p).real == pytest.approx(1.0)
        assert np.allclose(eigenprojector(s, 1) + eigenprojector(s, -1),
                           np.eye(2), atol=1e-15)
    with pytest.raises(ValueError):
        eigenprojector(0, 1)
    with pytest.raises(ValueError):
        eigenprojector(1, 0)


def test_setting_projector_examples():
    # ZZ with outcome (+1, -1) selects the basis state |01>
    p = setting_projector(PauliSetting((3, 3)), (1, -1))
    assert np.allclose(p, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-15)
    # identity on qubit 1 contributes a full identity factor
    p = setting_projector(PauliSetting((0, 3)), (1, 1))
    assert np.allclose(p, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-15)
    with pytest.raises(ValueError):
        setting_projector(PauliSetting((3, 3)), (1,))


def test_projectors_resolve_identity():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        setting = PauliSetting(tuple(int(q) for q in rng.integers(1, 4, m)))
        total = sum(setting_projector(setting, row)
                    for row in outcome_table(m))
        assert np.allclose(total, np.eye(2 ** m), atol=1e-12)


def test_outcome_table_order():
    t1 = outcome_table(1)
    assert np.array_equal(t1, [[1], [-1]])
    t2 = outcome_table(2)
    assert np.array_equal(t2, [[1, 1], [1, -1], [-1, 1], [-1, -1]])
    # qubit 1 is the most significant bit of the row index
    t3 = outcome_table(3)
    assert np.array_equal(t3[0], [1, 1, 1])
    assert np.array_equal(t3[4], [-1, 1, 1])
    assert np.array_equal(t3[7], [-1, -1, -1])
    with pytest.raises(ValueError):
        outcome_table(0)


def test_setting_labels():
    s = PauliSetting.from_label("XZY")
    assert s.qubits == (1, 3, 2)
    assert s.label == "XZY"
    assert PauliSetting.from_label("ixz").qubits == (0, 1, 3)
    with pytest.raises(ValueError):
        PauliSetting.from_label("XQ")
    with pytest.raises(ValueError):
        PauliSetting((1, 5))


def test_outcome_distribution_matches_projector_oracle():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        d = 2 ** m
        theta = gen_density_matrix(d, min(2, d), rng.integers(1 << 31))
        setting = PauliSetting(tuple(int(q) for q in rng.integers(1, 4, m)))
        p = outcome_distribution(setting, theta)
        table = outcome_table(m)
        for j, row in enumerate(table):
            expected = np.trace(_projector_oracle(setting, row) @ theta).real
            assert p[j] == pytest.approx(expected, abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_identity_qubits_force_plus_one():
    rng = np.random.default_rng(13)
    theta = gen_density_matrix(4, 2, 14)
    setting = PauliSetting((0, 2))
    p = outcome_distribution(setting, theta)
    # qubit 1 fixed at +1: rows with qubit-1 outcome -1 carry no mass
    assert p[2] == 0.0 and p[3] == 0.0
    for j, row in enumerate(outcome_table(2)):
        expected = np.trace(_projector_oracle(setting, row) @ theta).real
        if row[0] == 1:
            assert p[j] == pytest.approx(expected, abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_special_states():
    # maximally mixed: uniform over all outcomes in any basis
    for m in (1, 2):
        d = 2 ** m
        theta = np.eye(d) / d
        setting = PauliSetting((1,) * m)
        assert np.allclose(outcome_distribution(setting, theta),
                           np.full(d, 1.0 / d), atol=1e-12)
    # pure |00> measured in ZZ: all mass on the first table row
    theta = np.zeros((4, 4), dtype=complex)
    theta[0, 0] = 1.0
    p = outcome_distribution(PauliSetting((3, 3)), theta)
    assert np.allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_density_check_diagnostics():
    setting = PauliSetting((3,))
    with pytest.raises(ValueError, match="Hermitian"):
        outcome_distribution(setting, np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="trace"):
        outcome_distribution(setting, np.eye(2))
    with pytest.raises(ValueError, match="min eigenvalue"):
        outcome_distribution(setting, np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="square"):
        outcome_distribution(setting, np.ones((2, 3)))


def test_sampling_determinism_and_frequencies():
    theta = gen_density_matrix(4, 1, 21)
    setting = PauliSetting((1, 2))
    a = sample_outcomes(setting, theta, 50, 99)
    b = sample_outcomes(setting, theta, 50, 99)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = sample_outcomes(setting, theta, 50, 100)
    assert not np.array_equal(a.outcomes, c.outcomes)
    # long-run frequencies track the exact distribution
    big = sample_outcomes(setting, theta, 20000, 7)
    p = outcome_distribution(setting, theta)
    table = outcome_table(2)
    for j, row in enumerate(table):
        freq = np.mean(np.all(big.outcomes == row, axis=1))
        assert abs(freq - p[j]) < 0.02


def test_parity_identity_against_pauli_word():
    # E[product of signs] = tr(word(theta)) with word the Kronecker product of
    # the measured Paulis; checked in exact arithmetic via the distribution
    rng = np.random.default_rng(23)
    for m in (1, 2, 3):
        d = 2 ** m
        theta = gen_density_matrix(d, d, rng.integers(1 << 31))
        setting = PauliSetting(tuple(int(q) for q in rng.integers(1, 4, m)))
        p = outcome_distribution(setting, theta)
        table = outcome_table(m)
        mean_parity = float(np.dot(p, parity(table)))
        word = reduce(np.kron, [pauli_matrix(q) for q in setting.qubits])
        assert mean_parity == pytest.approx(np.trace(word @ theta).real, abs=1e-10)


def test_parity_shapes():
    assert parity((1, -1, -1)) == 1
    assert parity((1, -1)) == -1
    table = outcome_table(2)
    assert np.array_equal(parity(table), [1, -1, -1, 1])


def test_marginalize_endpoints():
    setting = PauliSetting((1, 2, 3))
    outcome = (-1, 1, -1)
    s0, o0 = marginalize(setting, outcome, 0)
    assert s0 == setting and o0 == outcome
    sf, of = marginalize(setting, outcome, 7)
    assert sf.qubits == (0, 0, 0) and of == (1, 1, 1)
    s1, o1 = marginalize(setting, outcome, (2,))
    assert s1.qubits == (1, 0, 3) and o1 == (-1, 1, -1)


def test_marginal_distributions_agree():
    # measuring then discarding a qubit matches measuring the reduced setting
    rng = np.random.default_rng(29)
    theta = gen_density_matrix(4, 2, 31)
    table = outcome_table(2)
    for qubits in ((1, 1), (1, 2), (2, 3), (3, 3)):
        setting = PauliSetting(qubits)
        joint = outcome_distribution(setting, theta)
        for mask in (1, 2):
            reduced, _ = marginalize(setting, table[0], mask)
            marg = outcome_distribution(reduced, theta)
            # accumulate the joint onto the reduced outcome pattern
            acc = np.zeros(4)
            for j, row in enumerate(table):
                _, out = marginalize(setting, row, mask)
                idx = sum((1 << (2 - 1 - i)) for i, o in enumerate(out) if o == -1)
                acc[idx] += joint[j]
            assert np.allclose(acc, marg, atol=1e-10)


def test_random_settings_uniform_and_deterministic():
    settings = gen_random_settings(9000, 1, 37)
    counts = {1: 0, 2: 0, 3: 0}
    for s in settings:
        counts[s.qubits[0]] += 1
    for axis in (1, 2, 3):
        assert abs(counts[axis] / 9000 - 1 / 3) < 0.05
    again = gen_random_settings(9000, 1, 37)
    assert [s.qubits for s in again] == [s.qubits for s in settings]


def test_density_matrix_properties():
    for d, k in ((2, 1), (4, 2), (8, 3)):
        theta = gen_density_matrix(d, k, 41)
        assert np.trace(theta).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(theta, theta.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(theta)
        assert eigs[0] >= -1e-12
        assert np.sum(eigs > 1e-10) == k
    with pytest.raises(ValueError):
        gen_density_matrix(4, 5, 1)


def test_rescaled_rows_single_qubit_oracle():
    # m=1: subset scales are sqrt(2) * 3^(-|E|/2) * sqrt(3)/2, so the kept-qubit
    # row has c = sqrt(3/2) and the all-identity row has c = sqrt(2)/2
    theta = gen_density_matrix(2, 1, 43)
    setting = PauliSetting((1,))
    batch = sample_outcomes(setting, theta, 11, 44)
    ds = build_rescaled_dataset([setting], [batch])
    assert ds.n == 2
    c_keep = math.sqrt(3.0 / 2.0)
    c_all = math.sqrt(2.0) / 2.0
    assert np.allclose(ds.designs[0], c_keep * SX, atol=1e-12)
    assert np.allclose(ds.designs[1], c_all * np.eye(2), atol=1e-12)
    ybar = float(np.mean(batch.outcomes[:, 0]))
    assert ds.y[0] == pytest.approx(c_keep * ybar, rel=1e-12)
    assert ds.y[1] == pytest.approx(c_all * 1.0, rel=1e-12)


def test_rescaled_rows_two_qubit_ybar_oracle():
    theta = gen_density_matrix(4, 2, 47)
    setting = PauliSetting((2, 3))
    batch = sample_outcomes(setting, theta, 25, 48)
    ds = build_rescaled_dataset([setting], [batch])
    assert ds.n == 4
    scales = {0: math.sqrt(4) * (3.0 / 4.0),
              1: math.sqrt(4) / math.sqrt(3) * (3.0 / 4.0),
              2: math.sqrt(4) / math.sqrt(3) * (3.0 / 4.0),
              3: math.sqrt(4) / 3.0 * (3.0 / 4.0)}
    out = batch.outcomes
    # hand loop over repetitions for every subset's averaged parity
    ybars = {0: np.mean(out[:, 0] * out[:, 1]),
             1: np.mean(out[:, 1]),       # qubit 1 dropped
             2: np.mean(out[:, 0]),       # qubit 2 dropped
             3: 1.0}
    words = {0: np.kron(SY, SZ), 1: np.kron(np.eye(2), SZ),
             2: np.kron(SY, np.eye(2)), 3: np.eye(4)}
    for mask in range(4):
        assert ds.y[mask] == pytest.approx(scales[mask] * ybars[mask], rel=1e-12)
        assert np.allclose(ds.designs[mask], scales[mask] * words[mask], atol=1e-12)


def _per_mask_reference(settings, batches):
    # the per-setting, per-mask loop the vectorised build replaced, kept as
    # the bitwise reference for y and the design rows
    m = settings[0].m
    scales = _subset_scales(m)
    ys, rows = [], []
    for setting, batch in zip(settings, batches):
        for mask in range(2 ** m):
            keep = [i for i in range(m) if not (mask >> i) & 1]
            ybar = float(batch.outcomes[:, keep].prod(axis=1).mean()) if keep else 1.0
            word = [0 if (mask >> i) & 1 else s for i, s in enumerate(setting.qubits)]
            ys.append(scales[mask] * ybar)
            rows.append(scales[mask] * reduce(np.kron, [pauli_matrix(q) for q in word]))
    return np.array(ys), np.array(rows)


def test_rows_equal_the_per_mask_loop_bit_for_bit():
    rng = np.random.default_rng(71)
    for m in (1, 2, 3, 4):
        theta = gen_density_matrix(2 ** m, 1, 72 + m)
        settings = gen_random_settings(6, m, 80 + m)
        settings = settings + settings[:2]
        batches = [sample_outcomes(s, theta, int(rng.integers(1, 40)), 90 + i)
                   for i, s in enumerate(settings)]
        ds = build_rescaled_dataset(settings, batches)
        y, rows = _per_mask_reference(settings, batches)
        designs = ds.designs
        batch, obs = ds.to_trace_regression()
        boost = 2.0 ** (m / 2.0)
        assert designs.shape == rows.shape and designs.dtype == rows.dtype
        assert ds.y.tobytes() == y.tobytes()
        assert designs.tobytes() == rows.tobytes()
        assert batch.matrices.tobytes() == (rows * boost).tobytes()
        assert obs.values.tobytes() == (y * boost).tobytes()


def test_dataset_and_its_regression_hold_one_design():
    theta = gen_density_matrix(16, 1, 0)
    tracemalloc.start()
    try:
        batch, _ = simulate_dataset(theta, 64, 32, 9).to_trace_regression()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * batch.matrices.nbytes


def test_exhaustive_settings_form_a_tight_frame():
    # with every X/Y/Z pair measured once, the rescaled-and-boosted design
    # reproduces Frobenius energy exactly, not just approximately
    theta = gen_density_matrix(4, 2, 53)
    settings = [PauliSetting((a, b)) for a in (1, 2, 3) for b in (1, 2, 3)]
    batches = [sample_outcomes(s, theta, 5, 1000 + i)
               for i, s in enumerate(settings)]
    ds = build_rescaled_dataset(settings, batches)
    batch, _ = ds.to_trace_regression()
    rng = np.random.default_rng(54)
    for _ in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (g + g.conj().T) / 2.0
        assert isometry_deviation(batch, a) < 1e-10
        values = apply_design(batch, a)
        energy = float(np.mean(values ** 2))
        assert energy == pytest.approx(float(np.sum(np.abs(a) ** 2)), rel=1e-10)


def test_to_trace_regression_boost():
    theta = gen_density_matrix(4, 1, 59)
    ds = simulate_dataset(theta, 3, 7, 60)
    batch, obs = ds.to_trace_regression()
    boost = 2.0 ** (ds.m / 2.0)
    assert np.allclose(batch.matrices, ds.designs * boost, atol=1e-15)
    assert np.allclose(obs.values, ds.y * boost, atol=1e-15)
    assert batch.n == ds.n == 3 * 4


def test_simulate_dataset_determinism():
    theta = gen_density_matrix(8, 1, 61)
    a = simulate_dataset(theta, 4, 6, 62)
    b = simulate_dataset(theta, 4, 6, 62)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.designs, b.designs)
    assert [s.label for s in a.settings] == [s.label for s in b.settings]
    c = simulate_dataset(theta, 4, 6, 63)
    assert not np.array_equal(a.y, c.y)
    with pytest.raises(ValueError):
        simulate_dataset(np.eye(3) / 3.0, 2, 2, 64)


def test_save_load_round_trip(tmp_path):
    theta = gen_density_matrix(4, 2, 67)
    ds = simulate_dataset(theta, 5, 9, 68)
    manifest = tmp_path / "manifest.csv"
    save_dataset(ds, manifest)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]
    text = manifest.read_text().splitlines()
    assert text[0] == "# repetitions=9"
    assert text[1] == "setting_index,setting_string,subset_mask,y_value"
    assert len(text) == 2 + ds.n
    assert text[2] == f"0,{ds.settings[0].label},0,{float(ds.y[0])!r}"
    # m = 1..4 with more settings than distinct bases, so settings repeat
    cases = [(gen_density_matrix(2 ** m, 1, 80 + m), 3 ** m + 2, 7 + m, 90 + m)
             for m in range(1, 5)]
    cases.append((gen_density_matrix(32, 1, 85), 160, 320, 95))
    for theta, n_settings, repetitions, seed in cases:
        ds = simulate_dataset(theta, n_settings, repetitions, seed)
        save_dataset(ds, manifest)
        loaded = load_dataset(manifest)
        assert loaded.m == ds.m
        assert loaded.repetitions == ds.repetitions
        assert [s.label for s in loaded.settings] == [s.label for s in ds.settings]
        assert loaded.y.tobytes() == ds.y.tobytes()
        assert loaded.designs.tobytes() == ds.designs.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]


def _saved(tmp_path, ds):
    manifest = tmp_path / "manifest.csv"
    save_dataset(ds, manifest)
    return manifest


def test_mixed_qubit_counts_are_rejected(tmp_path):
    ds = simulate_dataset(gen_density_matrix(4, 1, 73), 2, 5, 74)
    manifest = _saved(tmp_path, ds)
    lines = manifest.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("1,"):
            idx, _, mask, value = line.split(",")
            lines[i] = ",".join((idx, "X", mask, value))
    manifest.write_text("".join(lines))
    with pytest.raises(ValueError):
        load_dataset(manifest)
    with pytest.raises(ValueError):
        TomographyDataset(m=2, settings=(ds.settings[0], PauliSetting((1,))),
                          repetitions=5, y=ds.y)


def test_manifest_with_a_skipped_setting_index_is_rejected(tmp_path):
    ds = simulate_dataset(gen_density_matrix(4, 1, 77), 2, 5, 78)
    manifest = _saved(tmp_path, ds)
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join("2," + line[2:] if line.startswith("1,") else line
                                for line in lines))
    with pytest.raises(ValueError, match="setting_index 1"):
        load_dataset(manifest)


def _np_float64_repr(rows):
    rows[3][3] = f"np.float64({rows[3][3]})"


def _nan_value(rows):
    rows[3][3] = "nan"


def _edited_value(rows):
    rows[3][3] = repr(float(rows[3][3]) + 1e-9)


def _swapped_masks(rows):
    rows[5], rows[6] = rows[6], rows[5]


def _two_labels(rows):
    rows[6][1] = "ZZ" if rows[6][1] != "ZZ" else "XX"


def _short(rows):
    del rows[-1]


# (edit of the data rows, the manifest line the error names)
_MALFORMED = {
    "np-float64-repr": (_np_float64_repr, "line 6:"),
    "nan": (_nan_value, "line 6:"),
    "edited-y": (_edited_value, "line 6:"),
    "swapped-masks": (_swapped_masks, "line 8:"),
    "two-labels": (_two_labels, "line 9:"),
    "short": (_short, "line 13:"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_manifest_is_rejected(tmp_path, case):
    ds = simulate_dataset(gen_density_matrix(4, 2, 75), 3, 5, 76)
    manifest = _saved(tmp_path, ds)
    text = manifest.read_text().splitlines()
    edit, where = _MALFORMED[case]
    rows = [row.split(",") for row in text[2:]]
    edit(rows)
    manifest.write_text("\n".join(text[:2] + [",".join(row) for row in rows]) + "\n")
    with pytest.raises(ValueError, match=where):
        load_dataset(manifest)


def test_outcome_batch_validation():
    setting = PauliSetting((1, 3))
    with pytest.raises(ValueError):
        OutcomeBatch(setting=setting, outcomes=np.ones((4, 3)))
    with pytest.raises(ValueError):
        OutcomeBatch(setting=setting, outcomes=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        build_rescaled_dataset([setting], [])
