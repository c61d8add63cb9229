import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from lowrank_iht import quantum
from lowrank_iht.iht import run_iht
from lowrank_iht._rng import make_rng
from lowrank_iht.quantum import (
    TomographyDataset,
    _subset_scales,
    gen_density_matrix,
    gen_random_settings,
    outcome_table,
    simulate_dataset,
)
from lowrank_iht.trace_model import DesignBatch, apply_design

from _oracles import (
    OutcomeBatch,
    build_rescaled_dataset,
    eigenprojector,
    isometry_deviation,
    marginalize,
    outcome_distribution,
    parity,
    pauli_matrix,
    sample_outcomes,
    setting_projector,
    simulate_dataset_per_setting,
)


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _projector_oracle(setting, outcome):
    # direct Kronecker build from the textbook 2x2 projectors
    factors = []
    for s, o in zip(setting, outcome):
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
    p = setting_projector((3, 3), (1, -1))
    assert np.allclose(p, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-15)
    # identity on qubit 1 contributes a full identity factor
    p = setting_projector((0, 3), (1, 1))
    assert np.allclose(p, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-15)
    with pytest.raises(ValueError):
        setting_projector((3, 3), (1,))


def test_projectors_resolve_identity():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        setting = tuple(int(q) for q in rng.integers(1, 4, m))
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


def test_outcome_distribution_matches_projector_oracle():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        d = 2 ** m
        theta = gen_density_matrix(d, min(2, d), rng.integers(1 << 31))
        setting = tuple(int(q) for q in rng.integers(1, 4, m))
        p = outcome_distribution(setting, theta)
        table = outcome_table(m)
        for j, row in enumerate(table):
            expected = np.trace(_projector_oracle(setting, row) @ theta).real
            assert p[j] == pytest.approx(expected, abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_identity_qubits_force_plus_one():
    rng = np.random.default_rng(13)
    theta = gen_density_matrix(4, 2, 14)
    setting = (0, 2)
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
        setting = (1,) * m
        assert np.allclose(outcome_distribution(setting, theta),
                           np.full(d, 1.0 / d), atol=1e-12)
    # pure |00> measured in ZZ: all mass on the first table row
    theta = np.zeros((4, 4), dtype=complex)
    theta[0, 0] = 1.0
    p = outcome_distribution((3, 3), theta)
    assert np.allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_density_check_diagnostics():
    setting = (3,)
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
    setting = (1, 2)
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
        setting = tuple(int(q) for q in rng.integers(1, 4, m))
        p = outcome_distribution(setting, theta)
        table = outcome_table(m)
        mean_parity = float(np.dot(p, parity(table)))
        word = reduce(np.kron, [pauli_matrix(q) for q in setting])
        assert mean_parity == pytest.approx(np.trace(word @ theta).real, abs=1e-10)


def test_parity_shapes():
    assert parity((1, -1, -1)) == 1
    assert parity((1, -1)) == -1
    table = outcome_table(2)
    assert np.array_equal(parity(table), [1, -1, -1, 1])


def test_marginalize_endpoints():
    setting = (1, 2, 3)
    outcome = (-1, 1, -1)
    s0, o0 = marginalize(setting, outcome, 0)
    assert s0 == setting and o0 == outcome
    sf, of = marginalize(setting, outcome, 7)
    assert sf == (0, 0, 0) and of == (1, 1, 1)
    s1, o1 = marginalize(setting, outcome, (2,))
    assert s1 == (1, 0, 3) and o1 == (-1, 1, -1)


def test_marginal_distributions_agree():
    # measuring then discarding a qubit matches measuring the reduced setting
    rng = np.random.default_rng(29)
    theta = gen_density_matrix(4, 2, 31)
    table = outcome_table(2)
    for setting in ((1, 1), (1, 2), (2, 3), (3, 3)):
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
    counts = np.bincount(settings[:, 0], minlength=4)
    assert counts[0] == 0
    for axis in (1, 2, 3):
        assert abs(counts[axis] / 9000 - 1 / 3) < 0.05
    again = gen_random_settings(9000, 1, 37)
    assert again.tobytes() == settings.tobytes()


def test_random_settings_are_the_read_only_draw():
    # one integers(1, 4) call gives the (count, m) table, held as drawn
    for count, m, seed in ((1, 1, 0), (7, 3, 5), (40, 5, np.random.SeedSequence(9))):
        settings = gen_random_settings(count, m, seed)
        draw = make_rng(seed).integers(1, 4, (count, m))
        assert settings.dtype == draw.dtype and settings.shape == (count, m)
        assert settings.tobytes() == draw.tobytes()
        assert not settings.flags.writeable and settings.base is None


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
    setting = (1,)
    batch = sample_outcomes(setting, theta, 11, 44)
    ds = build_rescaled_dataset([setting], [batch])
    assert ds.n == 2
    c_keep = math.sqrt(3.0 / 2.0)
    c_all = math.sqrt(2.0) / 2.0
    rows = ds.to_trace_regression()[0].matrices / math.sqrt(2.0)
    assert np.allclose(rows[0], c_keep * SX, atol=1e-12)
    assert np.allclose(rows[1], c_all * np.eye(2), atol=1e-12)
    ybar = float(np.mean(batch.outcomes[:, 0]))
    assert ds.y[0] == pytest.approx(c_keep * ybar, rel=1e-12)
    assert ds.y[1] == pytest.approx(c_all * 1.0, rel=1e-12)


def test_rescaled_rows_two_qubit_ybar_oracle():
    theta = gen_density_matrix(4, 2, 47)
    setting = (2, 3)
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
    rows = ds.to_trace_regression()[0].matrices / 2.0
    for mask in range(4):
        assert ds.y[mask] == pytest.approx(scales[mask] * ybars[mask], rel=1e-12)
        assert np.allclose(rows[mask], scales[mask] * words[mask], atol=1e-12)


def _reference_rows(settings):
    # the per-setting, per-mask loop the vectorised build replaced, kept as
    # the bitwise reference for the design rows before the 2^(m/2) boost
    m = len(settings[0])
    scales = _subset_scales(m)
    rows = []
    for setting in settings:
        for mask in range(2 ** m):
            word = [0 if (mask >> i) & 1 else s for i, s in enumerate(setting)]
            rows.append(scales[mask] * reduce(np.kron, [pauli_matrix(q) for q in word]))
    return np.array(rows)


def _per_mask_reference(settings, batches):
    # the same loop for y, returned with the rows
    m = len(settings[0])
    scales = _subset_scales(m)
    ys = []
    for batch in batches:
        for mask in range(2 ** m):
            keep = [i for i in range(m) if not (mask >> i) & 1]
            ybar = float(batch.outcomes[:, keep].prod(axis=1).mean()) if keep else 1.0
            ys.append(scales[mask] * ybar)
    return np.array(ys), _reference_rows(settings)


def test_rows_equal_the_per_mask_loop_bit_for_bit():
    # to_trace_regression scales the words by c_E * 2^(m/2) in one multiply
    rng = np.random.default_rng(71)
    for m in (1, 2, 3, 4, 5):
        theta = gen_density_matrix(2 ** m, 1, 72 + m)
        settings = gen_random_settings(6, m, 80 + m)
        settings = np.concatenate([settings, settings[:2]])
        repetitions = int(rng.integers(1, 40))
        batches = [sample_outcomes(s, theta, repetitions, 90 + i)
                   for i, s in enumerate(settings)]
        ds = build_rescaled_dataset(settings, batches)
        y, rows = _per_mask_reference(settings, batches)
        batch, obs = ds.to_trace_regression()
        boost = 2.0 ** (m / 2.0)
        assert batch.matrices.shape == rows.shape and batch.matrices.dtype == rows.dtype
        assert ds.y.tobytes() == y.tobytes()
        assert batch.matrices.tobytes() == (rows * boost).tobytes()
        assert obs.values.tobytes() == (y * boost).tobytes()


def test_rows_with_identity_qubits_equal_the_per_mask_loop_bit_for_bit():
    # marginalized settings carry identity qubits; the outcome entries of
    # those qubits take part in the parities like any other, whether they
    # were sampled (always +1) or given (+1 or -1)
    rng = np.random.default_rng(73)
    for m in (1, 2, 3, 4, 5):
        theta = gen_density_matrix(2 ** m, 1, 74 + m)
        settings = [tuple(int(q) for q in row) for row in rng.integers(0, 4, size=(8, m))]
        settings += [(0,) * m, (0,) + (3,) * (m - 1)]
        repetitions = int(rng.integers(1, 30))
        batches = [OutcomeBatch(s, rng.choice([-1, 1], size=(repetitions, m)))
                   if i % 2 else sample_outcomes(s, theta, repetitions, 100 + i)
                   for i, s in enumerate(settings)]
        ds = build_rescaled_dataset(settings, batches)
        y, rows = _per_mask_reference(settings, batches)
        assert ds.y.tobytes() == y.tobytes()
        matrices = ds.to_trace_regression()[0].matrices
        assert matrices.tobytes() == (rows * 2.0 ** (m / 2.0)).tobytes()


def test_mixed_repetition_counts_are_rejected():
    # a dataset records one T, so settings measured 5 and 8 times cannot
    # share one; the first batch's T would misstate how the second setting's
    # y values were averaged
    theta = gen_density_matrix(4, 1, 75)
    settings = gen_random_settings(2, 2, 76)
    batches = [sample_outcomes(s, theta, reps, 77 + i)
               for i, (s, reps) in enumerate(zip(settings, (5, 8)))]
    with pytest.raises(ValueError, match="same number of times"):
        build_rescaled_dataset(settings, batches)


def test_dataset_built_from_a_view_is_not_written_through():
    y = np.zeros(4)
    settings = np.array([[1, 3], [2, 2]])
    ds = TomographyDataset(settings=settings[:1], repetitions=1, y=y[:])
    y[0] = np.nan
    settings[0, 0] = 0
    assert ds.y.tolist() == [0.0] * 4
    assert ds.settings.tolist() == [[1, 3]] and ds.m == 2
    with pytest.raises(ValueError, match="read-only"):
        ds.y[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.settings[0, 0] = 2
    # a settings array that owns its data is held as it is, made read-only
    ds = TomographyDataset(settings=settings, repetitions=1, y=np.zeros(8))
    assert ds.settings is settings and not settings.flags.writeable


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
    settings = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
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
    # m = 1..4 with more settings than distinct bases, so settings repeat,
    # and 160 settings of 5 qubits measured 320 times each
    cases = [(gen_density_matrix(4, 1, 59), 3, 7, 60)]
    cases += [(gen_density_matrix(2 ** m, 1, 80 + m), 3 ** m + 2, 7 + m, 90 + m)
              for m in range(1, 5)]
    cases.append((gen_density_matrix(32, 1, 85), 160, 320, 95))
    for theta, n_settings, repetitions, seed in cases:
        ds = simulate_dataset(theta, n_settings, repetitions, seed)
        batch, obs = ds.to_trace_regression()
        boost = 2.0 ** (ds.m / 2.0)
        assert batch.matrices.tobytes() == (_reference_rows(ds.settings) * boost).tobytes()
        assert np.allclose(obs.values, ds.y * boost, atol=1e-15)
        assert batch.n == ds.n == n_settings * 2 ** ds.m


@pytest.mark.parametrize("m, k, alpha", [(3, 1, 2), (3, 1, 5), (4, 2, 2)])
def test_run_iht_estimate_on_tomography_data_is_hermitian(m, k, alpha):
    # Pauli words are Hermitian, so Re tr(P^H theta) is the whole trace for a
    # Hermitian theta; every backprojection and so every estimate stays
    # Hermitian (cells as in the CLI's quantum grid: alpha * k * d settings,
    # 10 d repetitions each)
    d = 2 ** m
    for seed in range(4):
        theta = gen_density_matrix(d, k, 70 + seed)
        dataset = simulate_dataset(theta, alpha * k * d, 10 * d, 80 + seed)
        estimate, _ = run_iht(*dataset.to_trace_regression())
        assert np.max(np.abs(estimate - estimate.conj().T)) <= 1e-10


def test_simulate_dataset_determinism():
    theta = gen_density_matrix(8, 1, 61)
    a = simulate_dataset(theta, 4, 6, 62)
    b = simulate_dataset(theta, 4, 6, 62)
    assert np.array_equal(a.y, b.y)
    rows = _reference_rows(a.settings) * 2.0 ** (a.m / 2.0)
    assert a.to_trace_regression()[0].matrices.tobytes() == rows.tobytes()
    assert b.to_trace_regression()[0].matrices.tobytes() == rows.tobytes()
    assert a.settings.tobytes() == b.settings.tobytes()
    c = simulate_dataset(theta, 4, 6, 63)
    assert not np.array_equal(a.y, c.y)
    with pytest.raises(ValueError):
        simulate_dataset(np.eye(3) / 3.0, 2, 2, 64)


def test_simulate_dataset_checks_theta_once(monkeypatch):
    checked, tables = [], []
    check, table = quantum._check_density, quantum.outcome_table

    def counting(theta):
        checked.append(theta)
        return check(theta)

    def counting_table(m):
        tables.append(m)
        return table(m)

    monkeypatch.setattr(quantum, "_check_density", counting)
    monkeypatch.setattr(quantum, "outcome_table", counting_table)
    theta = gen_density_matrix(8, 1, 61)
    ds = simulate_dataset(theta, 7, 6, 62)
    assert len(checked) == 1
    assert tables == [3]
    monkeypatch.undo()
    assert np.array_equal(ds.y, simulate_dataset(theta, 7, 6, 62).y)


def test_n_settings_must_be_a_positive_int(monkeypatch):
    # -2 used to overflow in SeedSequence.spawn, and True or 2.0 raised a
    # TypeError; each is refused, named, before any setting is sampled
    theta = gen_density_matrix(2, 1, 65)
    monkeypatch.setattr(quantum, "gen_random_settings",
                        lambda *args: pytest.fail("settings were sampled"))
    for bad in (0, -2, 2.5, 2.0, True, "4"):
        with pytest.raises(ValueError, match="n_settings must be"):
            simulate_dataset(theta, bad, 3, 66)


def test_repetitions_must_be_a_positive_int(monkeypatch):
    # no y value is a mean of T = 0 parities; simulate_dataset refuses a bad
    # T before it samples any setting
    setting = (1,)
    theta = gen_density_matrix(2, 1, 65)
    monkeypatch.setattr(quantum, "gen_random_settings",
                        lambda *args: pytest.fail("settings were sampled"))
    for bad in (0, -3, 2.5, True, "4"):
        with pytest.raises(ValueError, match="repetitions must be"):
            TomographyDataset(settings=[setting], repetitions=bad, y=[1.0, 0.5])
        with pytest.raises(ValueError, match="repetitions must be"):
            simulate_dataset(theta, 2, bad, 66)
        with pytest.raises(ValueError, match="repetitions must be"):
            sample_outcomes(setting, theta, bad, 67)
    ds = TomographyDataset(settings=[setting], repetitions=np.int64(3), y=[1.0, 0.5])
    assert type(ds.repetitions) is int and ds.repetitions == 3


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_batched_rotations_equal_the_kron_chain(m):
    # every setting's joint eigenbasis, identity qubits included, against
    # the one-setting Kronecker fold
    rng = np.random.default_rng(70 + m)
    settings = np.concatenate([rng.integers(0, 4, size=(40, m)),
                               np.zeros((1, m), dtype=np.int64)])
    rotations = quantum._rotations(settings)
    assert rotations.shape == (len(settings), 2 ** m, 2 ** m)
    for setting, u in zip(settings, rotations):
        chain = reduce(np.kron, [quantum._EIGVECS[s] for s in setting])
        assert u.tobytes() == chain.tobytes()


def test_simulate_dataset_equals_sampling_each_setting():
    # the batched rotations and the counts against the public one-setting
    # path and the outcome vectors, with the seeds simulate_dataset spawns
    for m, count, reps, seed in ((1, 3, 5, 80), (3, 24, 30, 81), (5, 10, 64, 82)):
        theta = gen_density_matrix(2 ** m, 2, seed)
        ds = simulate_dataset(theta, count, reps, seed)
        setting_seed, *sample_seeds = np.random.SeedSequence(seed).spawn(count + 1)
        settings = gen_random_settings(count, m, setting_seed)
        batches = [sample_outcomes(s, theta, reps, child)
                   for s, child in zip(settings, sample_seeds)]
        assert ds.y.tobytes() == build_rescaled_dataset(settings, batches).y.tobytes()
        assert ds.settings.tobytes() == settings.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_simulate_dataset_has_the_bits_of_the_per_setting_oracle(monkeypatch, m):
    # stacked rotations, per-setting counts and the integer parity table
    # against one 2-D product, one outcome array and one mean per setting;
    # at m = 5 the 70 settings span three blocks, and a block of 3 settings
    # splits every other m
    theta = gen_density_matrix(2 ** m, min(2, 2 ** m), 120 + m)
    count, repetitions, seed = (70 if m == 5 else 3 ** m + 4), 5 + 13 * m, 130 + m
    settings, y = simulate_dataset_per_setting(theta, count, repetitions, seed)
    ds = simulate_dataset(theta, count, repetitions, seed)
    assert ds.settings.dtype == settings.dtype
    assert ds.settings.tobytes() == settings.tobytes()
    assert ds.y.tobytes() == y.tobytes()
    monkeypatch.setattr(quantum, "_BLOCK_BYTES", 3 * 16 * 4 ** m)
    assert simulate_dataset(theta, count, repetitions, seed).y.tobytes() == y.tobytes()


def test_simulate_dataset_allocates_less_than_a_stack_of_rotations():
    # 160 settings of 5 qubits measured 320 times each: the counts and one
    # block of products at a time, never a (settings, T, 2^m) array, stay
    # within the 4.8 MB that sampling one setting at a time peaked at
    theta = gen_density_matrix(32, 1, 140)
    tracemalloc.start()
    try:
        ds = simulate_dataset(theta, 160, 320, 141)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == 160 * 32
    assert peak <= 4.8e6


def test_mixed_qubit_counts_are_rejected():
    ds = simulate_dataset(gen_density_matrix(4, 1, 73), 2, 5, 74)
    with pytest.raises(ValueError):
        TomographyDataset(settings=[ds.settings[0], (1,)], repetitions=5, y=ds.y)


def test_simulate_dataset_holds_the_y_it_computes(monkeypatch):
    # the rows' y are written into an array that owns its data, so the
    # dataset freezes that array instead of copying it
    returned = []

    def recording(*args):
        returned.append(rescaled_y(*args))
        return returned[-1]

    rescaled_y = quantum._rescaled_y
    monkeypatch.setattr(quantum, "_rescaled_y", recording)
    ds = simulate_dataset(gen_density_matrix(8, 1, 150), 5, 9, 151)
    assert ds.y is returned[0]


def test_outcome_batch_validation():
    setting = (1, 3)
    with pytest.raises(ValueError):
        OutcomeBatch(setting=setting, outcomes=np.ones((4, 3)))
    with pytest.raises(ValueError):
        OutcomeBatch(setting=setting, outcomes=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        build_rescaled_dataset([setting], [])
