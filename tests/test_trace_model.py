import tracemalloc
import warnings

import numpy as np
import pytest

from lowrank_iht.inference import entry_scale_matrix
from lowrank_iht.trace_model import (
    DesignBatch,
    Observations,
    adjoint_apply,
    apply_design,
    gen_basis_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    simulate_observations,
)

from _oracles import estimate_rip_constant, isometry_deviation


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
    # the forward operator is the real part of the trace by definition, so a
    # complex argument against a real design is valid input, not a loss
    rng = np.random.default_rng(16)
    batch = DesignBatch(rng.standard_normal((6, 3, 3)))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(apply_design(batch, a),
                               _apply_oracle(batch.matrices, a), atol=1e-12)


def test_apply_design_warns_on_large_imaginary_residue():
    # a non-Hermitian complex design against a complex argument gives
    # tr(x^H a) = 1j, whose real part, exactly 0, is the model's value
    x = np.zeros((1, 2, 2), dtype=np.complex128)
    x[0, 0, 1] = 1.0
    a = np.zeros((2, 2), dtype=np.complex128)
    a[0, 1] = 1.0j
    values = apply_design(DesignBatch(x), a)
    assert values.dtype == np.float64
    assert values.tolist() == [0.0]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble,
                                   np.int64, np.complex64, np.complex128, np.clongdouble],
                         ids=["float16", "float32", "float64", "longdouble", "int64",
                              "complex64", "complex128", "clongdouble"])
def test_every_design_dtype_computes_in_double_precision(dtype):
    # a design is held as float64 or complex128 whatever dtype it came in, so
    # its passes and entry energies are those of the double-precision batch
    # of the same values; whole entries of up to 250 are exact in every one
    # of these dtypes, and 5 rows of them overflow a float16 energy sum
    rng = np.random.default_rng(17)
    vals = rng.integers(100, 251, (5, 3, 3)).astype(np.float64)
    if np.dtype(dtype).kind == "c":
        vals = vals + 1j * rng.integers(100, 251, (5, 3, 3))
    batch = DesignBatch(vals.astype(dtype))
    ref = DesignBatch(vals)
    assert batch.matrices.dtype == ref.matrices.dtype
    assert batch.matrices.dtype in (np.float64, np.complex128)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(apply_design(batch, a), _apply_oracle(vals, a),
                               rtol=1e-12, atol=1e-12)
    v = rng.standard_normal(5)
    np.testing.assert_allclose(adjoint_apply(batch, v),
                               sum(vi * x for vi, x in zip(v, vals)) / 5,
                               rtol=1e-12, atol=1e-12)
    assert np.all(np.isfinite(batch.entry_energy))
    assert batch.entry_energy.tobytes() == ref.entry_energy.tobytes()


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


@pytest.mark.parametrize("n, d, kind", [(1, 4, "real"), (1, 4, "complex"),
                                         (700, 8, "complex"), (3000, 16, "real")])
def test_adjoint_apply_has_the_bits_of_tensordot(n, d, kind):
    # the flattened gemv against the contraction it replaced
    rng = np.random.default_rng(n + d)
    mats = rng.standard_normal((n, d, d))
    if kind == "complex":
        mats = mats + 1j * rng.standard_normal((n, d, d))
    batch = DesignBatch(mats)
    v = rng.standard_normal(n)
    got = adjoint_apply(batch, v)
    expected = np.tensordot(v, batch.matrices, axes=(0, 0)) / n
    assert got.dtype == expected.dtype and got.shape == (d, d)
    assert got.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None], ids=repr)
def test_generators_refuse_a_size_that_is_not_an_int(bad):
    # a float used to reach numpy as "'float' object cannot be interpreted as
    # an integer" and a bool as "an integer is required", naming no argument
    for call, name in ((lambda: gen_gaussian_design(bad, 3, 0), "n"),
                       (lambda: gen_gaussian_design(4, bad, 0), "d"),
                       (lambda: gen_basis_design(bad), "d"),
                       (lambda: gen_low_rank_theta(bad, 1, 0), "d"),
                       (lambda: gen_low_rank_theta(4, bad, 0), "k")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()


def test_generators_take_numpy_ints_and_refuse_sizes_below_one():
    assert gen_gaussian_design(np.int64(2), np.uint8(3), 0).matrices.tobytes() == \
        gen_gaussian_design(2, 3, 0).matrices.tobytes()
    assert gen_basis_design(np.int32(2)).n == 4
    np.testing.assert_array_equal(gen_low_rank_theta(np.int64(4), np.int8(2), 5),
                                  gen_low_rank_theta(4, 2, 5))
    for call, match in ((lambda: gen_gaussian_design(0, 3, 0), "n must be at least 1"),
                        (lambda: gen_gaussian_design(2, 0, 0), "d must be at least 1"),
                        (lambda: gen_basis_design(0), "d must be at least 1"),
                        (lambda: gen_low_rank_theta(4, 0, 0), r"k must be in \[1, 5\)"),
                        (lambda: gen_low_rank_theta(4, 5, 0), r"k must be in \[1, 5\)")):
        with pytest.raises(ValueError, match=match):
            call()


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
    unit = simulate_observations(batch, theta, 1.0, 7)
    np.testing.assert_array_equal(noisy.noise, 2.0 * unit.noise)
    again = simulate_observations(batch, theta, 2.0, 7)
    np.testing.assert_array_equal(noisy.values, again.values)


@pytest.mark.parametrize("noise_std", [np.nan, np.inf, -1.0, True, "1.0"])
def test_simulate_observations_refuses_a_bad_noise_scale(noise_std):
    # NaN passed a bare `< 0` check and surfaced as non-finite observations;
    # True was taken as 1.0, and a string raised a TypeError naming nothing
    batch = gen_gaussian_design(10, 3, 1)
    message = ("noise_std must be a number" if isinstance(noise_std, (bool, str))
               else r"noise_std must be in \[0, inf\)")
    with pytest.raises(ValueError, match=message):
        simulate_observations(batch, np.eye(3), noise_std, 7)


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
    assert obs.noise is None


def test_observations_hold_read_only_vectors():
    # as a DesignBatch does, the holder keeps the caller's float64 arrays
    # and makes them read-only, and copies a view once
    values, noise = np.ones(3), np.zeros(3)
    obs = Observations(values=values, noise=noise)
    assert obs.values is values and obs.noise is noise
    for held in (values, noise):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 2.0
    base = np.ones(4)
    obs = Observations(values=base[:3])
    base[0] = 5.0
    assert obs.values.tolist() == [1.0, 1.0, 1.0]


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
    # 1e308 ** 2 overflows, so every entry scale is inf, as
    # np.sqrt(np.mean(np.abs(mats) ** 2, axis=0)) gives
    assert np.all(entry_scale_matrix(batch) == np.inf)
    mats = mats.copy()
    mats[2, 1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        DesignBatch(mats)


def test_design_matrices_are_read_only():
    # entry_energy is summed once, so a write after construction would
    # leave it stale; the caller's float64 array is the one held
    mats = np.ones((2, 3, 3))
    batch = DesignBatch(mats)
    for held in (mats, batch.matrices):
        with pytest.raises(ValueError, match="read-only"):
            held[0, 1, 1] = np.nan
    assert batch.entry_energy.tolist() == np.full((3, 3), 2.0).tolist()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_design_built_from_a_view_is_not_written_through(dtype):
    # a view's base stayed writable, so a write to it left entry_energy
    # stale: 3.0 where the entries gave 27.0
    mats = np.ones((3, 2, 2), dtype=dtype)
    batch = DesignBatch(mats[:])
    mats[0, 0, 0] = 5.0
    assert batch.matrices.base is None
    assert batch.matrices.tolist() == np.ones((3, 2, 2)).tolist()
    assert batch.entry_energy.tolist() == np.full((2, 2), 3.0).tolist()
    for held in (batch.matrices, batch.entry_energy):
        with pytest.raises(ValueError, match="read-only"):
            held.flat[0] = 0.0


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
