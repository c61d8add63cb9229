import numpy as np
import pytest

from lowrank_iht.linalg import (
    SvdConvergenceError,
    SvdFactors,
    entrywise_inf_norm,
    hard_threshold_entries,
    hard_threshold_singular,
    svd,
)

from _oracles import restricted_singular_bound, restricted_singular_bound_check, schatten_norm


def test_svd_hand_derived_values():
    # oracle: A = [[0,2],[1,0]] has A^T A = diag(1,4), so the singular values
    # are 2 and 1; the top right-singular vector is e2, the top left is e1
    a = np.array([[0.0, 2.0], [1.0, 0.0]])
    f = svd(a)
    np.testing.assert_allclose(f.singular_values, [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(f.left), [[1, 0], [0, 1]], atol=1e-12)
    np.testing.assert_allclose(np.abs(f.right), [[0, 1], [1, 0]], atol=1e-12)
    np.testing.assert_allclose(f.reconstruct(), a, atol=1e-12)


def test_svd_reconstructs_random_matrices():
    rng = np.random.default_rng(11)
    for trial in range(25):
        d1, d2 = rng.integers(1, 9, size=2)
        a = rng.standard_normal((d1, d2))
        if trial % 2:
            a = a + 1j * rng.standard_normal((d1, d2))
        f = svd(a)
        np.testing.assert_allclose(f.reconstruct(), a, atol=1e-10)
        assert np.all(np.diff(f.singular_values) <= 1e-12)
        assert np.all(f.singular_values >= 0)


def test_svd_canonical_phase_is_stable():
    # multiplying a column pair of (u, v) by a unit phase leaves the product
    # unchanged; canonicalization must pick the same representative
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    f1 = svd(a)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    f2 = svd(a * phase)
    for col in range(5):
        i = np.argmax(np.abs(f1.left[:, col]))
        assert f1.left[i, col].real > 0
        assert abs(f1.left[i, col].imag) < 1e-12
    # the rotated input has the same singular values
    np.testing.assert_allclose(f1.singular_values, f2.singular_values, atol=1e-10)


def _phase_loop_reference(a):
    # the per-column canonicalisation svd() vectorises, kept as the oracle
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().T.copy()
    for j in range(s.size):
        if s[j] == 0.0:
            continue
        col = u[:, j]
        i = int(np.argmax(np.abs(col)))
        mag = abs(col[i])
        if mag > 0.0:
            phase = np.conj(col[i] / mag)
            u[:, j] = col * phase
            v[:, j] = v[:, j] * phase
    return u, v


@pytest.mark.parametrize("kind", ["real", "complex", "hermitian", "wide"])
def test_svd_phases_are_bitwise_equal_to_the_column_loop(kind):
    rng = np.random.default_rng(11)
    for d in (2, 5, 16, 32):
        shape = (d, d + 3) if kind == "wide" else (d, d)
        for _ in range(10):
            a = rng.standard_normal(shape)
            if kind != "real":
                a = a + 1j * rng.standard_normal(shape)
            if kind == "hermitian":
                a = a + a.conj().T
            f = svd(a)
            u, v = _phase_loop_reference(a)
            assert f.left.tobytes() == u.tobytes()
            assert f.right.tobytes() == v.tobytes()


def test_whole_column_phases_have_the_bits_of_the_column_loop():
    # svd multiplies every column by its pivot's phase, the columns of zero
    # singular values included: the bits of phasing only the nonzero columns.
    # Tied pivots (Hadamard), negative pivots, tall, wide, rank-deficient and
    # complex inputs
    rng = np.random.default_rng(13)
    h = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
    cases = [h, -h, np.diag([2.0, -3.0, 1.0]), -np.eye(3), rng.standard_normal((7, 4)),
             rng.standard_normal((4, 7)), np.diag([2.0, 0.0, -1.0]),
             np.zeros((3, 2)), np.outer([1.0, -2.0, 0.0], [0.0, 3.0]),
             np.outer([1.0, 1j, 0.0], [2.0, 0.0, -1j]), np.diag([1j, 0.0, -2.0])]
    for a in cases:
        f = svd(a)
        u, v = _phase_loop_reference(a)
        nonzero = f.singular_values != 0.0
        assert f.left[:, nonzero].tobytes() == u[:, nonzero].tobytes()
        assert f.right[:, nonzero].tobytes() == v[:, nonzero].tobytes()
        for factor in (f.left, f.right):
            np.testing.assert_allclose(factor.conj().T @ factor, np.eye(nonzero.size),
                                       atol=1e-12)
        np.testing.assert_allclose(f.reconstruct(), a, atol=1e-12)
    assert [bool(svd(a).singular_values.all()) for a in cases] == [True] * 6 + [False] * 5


def test_real_svd_phase_is_the_hypot_phase():
    # a real pivot's phase is its sign, bit for bit the complex formula
    rng = np.random.default_rng(12)
    pivot = np.concatenate([rng.standard_normal(1000),
                            [1e-300, -1e-300, 5e-324, -5e-324, 1e300, -1e300]])
    hypot = np.conj(pivot / np.hypot(pivot.real, pivot.imag))
    assert np.sign(pivot).tobytes() == hypot.tobytes()


def test_svd_zero_matrix_has_orthonormal_factors():
    f = svd(np.zeros((3, 3)))
    np.testing.assert_allclose(f.singular_values, 0.0)
    np.testing.assert_allclose(f.left.conj().T @ f.left, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(f.right.conj().T @ f.right, np.eye(3), atol=1e-12)


def test_svd_rejects_bad_inputs():
    with pytest.raises(ValueError):
        svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_svd_factors_rank():
    f = SvdFactors(left=np.eye(3), singular_values=np.array([2.0, 1e-12, 0.0]),
                   right=np.eye(3))
    assert f.rank() == 2


@pytest.mark.parametrize("left, singular_values, right, match", [
    (np.eye(2), [np.nan, 1.0], np.eye(2), "singular_values must be finite"),
    (np.eye(2), [[2.0, 1.0]], np.eye(2), r"singular_values must have shape \(\*,\)"),
    (np.eye(2), ["2", "1"], np.eye(2), "singular_values must hold numbers"),
    (np.eye(2), [2.0, 1.0], np.full((2, 2), np.inf), "right must be finite"),
    (np.ones(2), [2.0, 1.0], np.eye(2), r"left must have shape \(\*, 2\)"),
    (np.ones((2, 3)), [2.0, 1.0], np.eye(2), r"left must have shape \(\*, 2\), got \(2, 3\)"),
    (np.eye(2), [2.0, 1.0], np.ones((3, 1)), r"right must have shape \(\*, 2\), got \(3, 1\)"),
    (np.eye(2), [-1.0, 2.0], np.eye(2), "singular_values must be nonnegative and nonincreasing"),
    (np.eye(2), [2.0, -1.0], np.eye(2), "singular_values must be nonnegative and nonincreasing"),
    (np.eye(3), [1.0, 0.0, 2.0], np.eye(3), "singular_values must be nonnegative and nonincreasing"),
], ids=["nan-value", "matrix-values", "str-values", "inf-right", "vector-left",
        "left-columns", "right-columns", "increasing-with-negative", "negative",
        "increasing"])
def test_svd_factors_refuse_what_they_do_not_document(left, singular_values, right, match):
    # a NaN singular value used to be held and left out of .rank(), factors
    # with another number of columns reconstructed nothing, and a negative
    # or increasing singular value was held, miscounted by .rank() and
    # reconstructed as given
    with pytest.raises(ValueError, match=f"^{match}"):
        SvdFactors(left=left, singular_values=singular_values, right=right)


def test_svd_factors_take_nested_lists():
    # read_only used to fail on a list with "'list' object has no attribute 'base'"
    f = SvdFactors(left=[[1.0], [0.0]], singular_values=[2.0], right=[[1j]])
    assert f.left.dtype == np.float64 and f.right.dtype == np.complex128
    assert f.singular_values.dtype == np.float64
    assert not any(a.flags.writeable for a in (f.left, f.singular_values, f.right))
    assert f.rank() == 1 and f.reconstruct().tolist() == [[-2j], [0j]]


def test_hard_threshold_entries_closed_at_threshold():
    u = np.array([-3.0, -1.0, 0.5, 1.0, 2.0])
    out = hard_threshold_entries(u, 1.0)
    np.testing.assert_allclose(out, [-3.0, -1.0, 0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        hard_threshold_entries(u, -0.1)


def test_hard_threshold_entries_complex_uses_modulus():
    u = np.array([1.0 + 1.0j, 0.5 + 0.5j])
    out = hard_threshold_entries(u, 1.0)
    np.testing.assert_allclose(out, [1.0 + 1.0j, 0.0])


def test_hard_threshold_singular_keeps_large_spectrum():
    a = np.diag([3.0, 1.0])
    kept = hard_threshold_singular(a, 2.0)
    np.testing.assert_allclose(kept.reconstruct(), np.diag([3.0, 0.0]), atol=1e-12)
    assert kept.rank() == 1
    # closed threshold, sigma == T survives
    np.testing.assert_allclose(hard_threshold_singular(a, 1.0).reconstruct(), a,
                               atol=1e-12)
    none = hard_threshold_singular(a, 5.0)
    np.testing.assert_allclose(none.reconstruct(), np.zeros((2, 2)), atol=1e-12)
    assert none.rank() == 0
    with pytest.raises(ValueError):
        hard_threshold_singular(a, -1.0)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_hard_threshold_singular_keeps_the_canonical_factors(kind):
    # the estimator's thresholding step: the factors of svd with the dropped
    # values zeroed, so its reconstruction is bitwise the masked product
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 6))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((6, 6))
    full = svd(a)
    t = float(full.singular_values[2])
    kept = hard_threshold_singular(a, t)
    np.testing.assert_array_equal(kept.left, full.left)
    np.testing.assert_array_equal(kept.right, full.right)
    np.testing.assert_array_equal(kept.singular_values,
                                  np.where(full.singular_values >= t,
                                           full.singular_values, 0.0))
    assert kept.rank() == 3


def test_schatten_norms_known_spectrum():
    a = np.diag([3.0, 4.0])
    assert schatten_norm(a, "operator") == pytest.approx(4.0)
    assert schatten_norm(a, 1.0) == pytest.approx(7.0)
    assert schatten_norm(a, 2.0) == pytest.approx(5.0)


def test_schatten_norms_match_direct_formulas():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal((6, 4))
        s = np.linalg.svd(a, compute_uv=False)
        assert schatten_norm(a, "operator") == pytest.approx(s.max(), rel=1e-10)
        assert schatten_norm(a, 1.0) == pytest.approx(s.sum(), rel=1e-10)
        assert schatten_norm(a, 2.0) == pytest.approx(np.linalg.norm(a), rel=1e-10)
        assert schatten_norm(a, 3.0) == pytest.approx((s ** 3).sum() ** (1 / 3), rel=1e-10)
    with pytest.raises(ValueError):
        schatten_norm(a, 0.0)
    with pytest.raises(ValueError):
        schatten_norm(a, "nuclear")
    # a bare float(p) read True as p=1 and gave 1.0 for every matrix at p=inf
    with pytest.raises(ValueError, match="^p must be a number, got True$"):
        schatten_norm(np.eye(3), True)
    for p in (np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^p must be in \(0, inf\), got "):
            schatten_norm(np.diag([2.0, 1.0]), p)


def test_entrywise_inf_norm():
    assert entrywise_inf_norm(np.array([[1.0, -5.0], [2.0, 0.0]])) == 5.0
    assert entrywise_inf_norm(np.array([[3.0 + 4.0j]])) == pytest.approx(5.0)


def test_restricted_singular_bound_matches_svd_tail():
    # oracle: projecting out the top j-1 left singular vectors leaves exactly
    # the tail spectrum, so the bound with those vectors equals sigma_j
    rng = np.random.default_rng(19)
    for _ in range(8):
        a = rng.standard_normal((7, 7))
        u, s, _ = np.linalg.svd(a)
        for j in (1, 2, 4):
            vecs = [u[:, i] for i in range(j - 1)]
            bound = restricted_singular_bound(a, vecs)
            assert bound == pytest.approx(s[j - 1], rel=1e-10)
            assert restricted_singular_bound_check(a, j, vecs)


def test_restricted_singular_bound_any_vectors_dominate():
    # with arbitrary orthonormal vectors the projection still bounds sigma_j
    rng = np.random.default_rng(23)
    a = rng.standard_normal((6, 6))
    s = np.linalg.svd(a, compute_uv=False)
    q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    vecs = [q[:, 0], q[:, 1]]
    assert restricted_singular_bound(a, vecs) >= s[2] - 1e-10
    assert restricted_singular_bound_check(a, 3, vecs)


def test_restricted_singular_bound_validates_orthonormality():
    a = np.eye(4)
    with pytest.raises(ValueError):
        restricted_singular_bound(a, [np.ones(4)])
    with pytest.raises(ValueError):
        restricted_singular_bound_check(a, 3, [np.eye(4)[:, 0]])


def test_svd_convergence_error_is_exported():
    assert issubclass(SvdConvergenceError, RuntimeError)
