import tracemalloc
import warnings

import numpy as np
import pytest

from lowrank_iht.trace_model import (
    DesignBatch,
    Observations,
    adjoint_apply,
    apply_design,
    estimate_rip_constant,
    gen_basis_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    isometry_deviation,
    simulate_observations,
)


def _apply_oracle(matrices, a):
    # independent slow path: real part of the trace inner product, one row
    # at a time
    return np.array([np.trace(x.conj().T @ a).real for x in matrices])


def test_apply_design_matches_trace_oracle_real():
    rng = np.random.default_rng(5)
    batch = DesignBatch(rng.standard_normal((7, 4, 4)))
    a = rng.standard_normal((4, 4))
    np.testing.assert_allclose(apply_design(batch, a),
                               _apply_oracle(batch.matrices, a), atol=1e-12)


def test_apply_design_matches_trace_oracle_complex():
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    mats = (mats + mats.conj().transpose(0, 2, 1)) / 2
    batch = DesignBatch(mats)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (a + a.conj().T) / 2
    np.testing.assert_allclose(apply_design(batch, a),
                               _apply_oracle(batch.matrices, a), atol=1e-12)


def test_apply_design_real_design_complex_argument():
    # taking the real part is the documented semantics, and the discarded
    # imaginary component is reported
    rng = np.random.default_rng(16)
    batch = DesignBatch(rng.standard_normal((6, 3, 3)))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.warns(RuntimeWarning):
        values = apply_design(batch, a)
    np.testing.assert_allclose(values, _apply_oracle(batch.matrices, a), atol=1e-12)


def test_apply_design_warns_on_large_imaginary_residue():
    # a non-Hermitian complex design against a complex argument gives a trace
    # with a genuine imaginary part, which the real-valued model discards
    x = np.zeros((1, 2, 2), dtype=np.complex128)
    x[0, 0, 1] = 1.0
    a = np.zeros((2, 2), dtype=np.complex128)
    a[0, 1] = 1.0j
    with pytest.warns(RuntimeWarning):
        apply_design(DesignBatch(x), a)


def test_adjoint_apply_is_the_adjoint():
    # defining identity: (1/n) v . apply(A) == Re <adjoint(v), A> for all A, v
    rng = np.random.default_rng(9)
    for trial in range(10):
        mats = rng.standard_normal((8, 3, 3))
        if trial % 2:
            mats = mats + 1j * rng.standard_normal((8, 3, 3))
        batch = DesignBatch(mats)
        a = rng.standard_normal((3, 3)) + (1j * rng.standard_normal((3, 3)) if trial % 2 else 0)
        v = rng.standard_normal(8)
        lhs = np.dot(v, _apply_oracle(batch.matrices, a)) / batch.n
        back = adjoint_apply(batch, v)
        rhs = np.trace(back.conj().T @ a).real
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_adjoint_apply_picks_out_single_row():
    batch = DesignBatch(np.random.default_rng(2).standard_normal((4, 3, 3)))
    v = np.zeros(4)
    v[1] = batch.n
    np.testing.assert_allclose(adjoint_apply(batch, v), batch.matrices[1], atol=1e-12)


def test_basis_design_is_exact_isometry():
    d = 5
    batch = gen_basis_design(d)
    assert batch.n == d * d
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = rng.standard_normal((d, d))
        assert isometry_deviation(batch, a) == pytest.approx(0.0, abs=1e-12)
        # the rows enumerate scaled entries in row-major order
        np.testing.assert_allclose(apply_design(batch, a) / d, a.ravel(), atol=1e-12)


def test_basis_design_backprojection_is_identity():
    d = 4
    batch = gen_basis_design(d)
    rng = np.random.default_rng(22)
    a = rng.standard_normal((d, d))
    np.testing.assert_allclose(adjoint_apply(batch, apply_design(batch, a)), a,
                               atol=1e-12)


def test_gen_gaussian_design_seeded():
    b1 = gen_gaussian_design(6, 3, 42)
    b2 = gen_gaussian_design(6, 3, 42)
    np.testing.assert_array_equal(b1.matrices, b2.matrices)
    assert b1.matrices.shape == (6, 3, 3)
    assert not np.iscomplexobj(b1.matrices)


def test_gen_low_rank_theta_is_symmetric_rank_k():
    theta = gen_low_rank_theta(8, 3, 1)
    np.testing.assert_allclose(theta, theta.T, atol=1e-12)
    s = np.linalg.svd(theta, compute_uv=False)
    assert s[2] > 1e-10
    assert s[3] < 1e-10
    eigs = np.linalg.eigvalsh(theta)
    assert eigs.min() > -1e-10


def test_simulate_observations_noiseless_and_noisy():
    rng = np.random.default_rng(33)
    batch = DesignBatch(rng.standard_normal((10, 3, 3)))
    theta = rng.standard_normal((3, 3))
    clean = simulate_observations(batch, theta, 0.0, 7)
    np.testing.assert_allclose(clean.values, _apply_oracle(batch.matrices, theta),
                               atol=1e-12)
    np.testing.assert_allclose(clean.noise, 0.0, atol=1e-15)
    noisy = simulate_observations(batch, theta, 2.0, 7)
    np.testing.assert_allclose(noisy.values - noisy.noise, clean.values, atol=1e-12)
    assert noisy.noise_std == 2.0
    again = simulate_observations(batch, theta, 2.0, 7)
    np.testing.assert_array_equal(noisy.values, again.values)


def test_rip_deviation_shrinks_with_n():
    d = 8
    r_small = estimate_rip_constant(gen_gaussian_design(300, d, 1), 1, 60, 2)
    r_large = estimate_rip_constant(gen_gaussian_design(4800, d, 3), 1, 60, 4)
    assert r_small.max_deviation > r_large.max_deviation
    assert len(r_small.deviations) == 60
    assert r_small.max_deviation == pytest.approx(max(r_small.deviations))
    assert r_small.k == 1


def test_rip_hermitian_probes_on_hermitian_design():
    rng = np.random.default_rng(55)
    mats = rng.standard_normal((900, 6, 6)) + 1j * rng.standard_normal((900, 6, 6))
    mats = (mats + mats.conj().transpose(0, 2, 1)) / np.sqrt(2.0)
    batch = DesignBatch(mats / np.sqrt(2.0))
    est = estimate_rip_constant(batch, 1, 40, 8, probe="hermitian")
    assert est.max_deviation < 1.0
    with pytest.raises(ValueError):
        estimate_rip_constant(batch, 0, 10, 1)
    with pytest.raises(ValueError):
        estimate_rip_constant(batch, 1, 10, 1, probe="unknown")


def test_observations_validation():
    with pytest.raises(ValueError):
        Observations(values=np.array([[1.0]]))
    with pytest.raises(ValueError):
        Observations(values=np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        Observations(values=np.ones(3), noise=np.ones(2))
    obs = Observations(values=np.ones(3))
    assert obs.n == 3
    assert obs.noise_std is None


def test_design_batch_validation():
    with pytest.raises(ValueError):
        DesignBatch(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        DesignBatch(np.ones((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_design_batch_rejects_non_finite_entries(bad, dtype):
    mats = np.ones((4, 3, 3), dtype=dtype)
    mats[2, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        DesignBatch(mats)
    if dtype is np.complex128:
        mats = np.ones((4, 3, 3), dtype=dtype)
        mats[3, 0, 2] = complex(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            DesignBatch(mats)


def test_design_batch_accepts_finite_entries_whose_sum_overflows():
    mats = np.full((3, 2, 2), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = DesignBatch(mats)
    assert batch.matrices is mats
    mats = mats.copy()
    mats[2, 1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        DesignBatch(mats)


def test_design_batch_checks_finiteness_without_a_design_sized_temporary():
    mats = np.random.default_rng(3).standard_normal((1024, 32, 32))
    tracemalloc.start()
    try:
        DesignBatch(mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an entrywise np.isfinite mask alone would be nbytes / 8
    assert peak < 0.02 * mats.nbytes
