"""Property tests of the trace operator and the estimator, run by hypothesis.

Examples are drawn from a fixed seed (``derandomize=True``) so every run
checks the same cases, and each test stays under about a second.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank_iht import (
    DesignBatch,
    SparseInstance,
    adjoint_apply,
    apply_design,
    build_decorrelator,
    decomposition_terms,
    gen_density_matrix,
    gen_gaussian_design,
    gen_low_rank_theta,
    gen_sparse_instance,
    run_iht,
    simulate_dataset,
    simulate_observations,
    sparse_iht_run,
)

_FIXED = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_FIXED
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), d=st.integers(1, 6),
       complex_design=st.booleans())
def test_adjoint_identity(seed, n, d, complex_design):
    # (1/n) <X(A), v> = Re <A, X*(v)> under <A, B> = tr(A^H B)
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((n, d, d))
    a = rng.standard_normal((d, d))
    if complex_design:
        mats = mats + 1j * rng.standard_normal((n, d, d))
        a = a + 1j * rng.standard_normal((d, d))
    batch = DesignBatch(mats)
    v = rng.standard_normal(n)
    lhs = apply_design(batch, a) @ v / n
    rhs = np.vdot(a, adjoint_apply(batch, v)).real
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@_FIXED
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3),
       c=st.sampled_from([4.0, 1 / 8, 3.0]))
def test_run_iht_is_scale_equivariant(seed, k, c):
    theta = gen_low_rank_theta(8, k, seed)
    batch = gen_gaussian_design(300, 8, seed + 1)
    y = simulate_observations(batch, theta, 1.0, seed + 2).values
    estimate, state = run_iht(batch, y)
    scaled, scaled_state = run_iht(batch, c * y)
    assert scaled_state.iteration == state.iteration
    assert scaled_state.rank == state.rank
    assert np.linalg.norm(scaled - c * estimate) <= 1e-12 * np.linalg.norm(c * estimate)


@_FIXED
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 3))
def test_run_iht_is_rotation_equivariant(seed, k):
    # X^i -> U X^i V^T with orthogonal U, V keeps <U X^i V^T, U A V^T> = <X^i, A>,
    # maps the adjoint to U X*(v) V^T and leaves singular values unchanged, so
    # the same y gives U theta_hat V^T at the same rank and iteration
    d = 8
    theta = gen_low_rank_theta(d, k, seed)
    batch = gen_gaussian_design(600, d, seed + 1)
    y = simulate_observations(batch, theta, 1.0, seed + 2).values
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    estimate, state = run_iht(batch, y)
    rotated, rotated_state = run_iht(DesignBatch(u @ batch.matrices @ v.T), y)
    assert rotated_state.iteration == state.iteration
    assert rotated_state.rank == state.rank
    expected = u @ estimate @ v.T
    assert np.linalg.norm(rotated - expected) <= 1e-12 * np.linalg.norm(expected)


def _gaussian_regression(seed, k):
    theta = gen_low_rank_theta(8, k, seed)
    batch = gen_gaussian_design(300, 8, seed + 1)
    return theta, batch, simulate_observations(batch, theta, 1.0, seed + 2).values


def _pauli_regression(seed, k):
    # m = 3 qubits: 24 settings of 8 rows each, Hermitian complex rows
    theta = gen_density_matrix(8, k, seed)
    batch, obs = simulate_dataset(theta, 24, 200, seed + 1).to_trace_regression()
    return theta, batch, obs.values


@pytest.mark.parametrize("regression", [_gaussian_regression, _pauli_regression],
                         ids=["gaussian", "pauli"])
@_FIXED
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2))
def test_run_iht_is_row_permutation_invariant(regression, seed, k):
    _, batch, y = regression(seed, k)
    perm = np.random.default_rng(seed).permutation(batch.n)
    estimate, state = run_iht(batch, y)
    permuted, permuted_state = run_iht(DesignBatch(batch.matrices[perm]), y[perm])
    assert permuted_state.iteration == state.iteration
    assert permuted_state.rank == state.rank
    assert permuted_state.converged == state.converged
    assert np.linalg.norm(permuted - estimate) <= 1e-12 * np.linalg.norm(estimate)


@_FIXED
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 2))
def test_debias_decomposition_identity_on_a_pauli_design(seed, k):
    # sqrt(n) (debiased - theta) = remainder + sqrt(n) X*(eps) with
    # eps = y - X(theta), on Hermitian complex design rows
    theta, batch, y = _pauli_regression(seed, k)
    assert np.array_equal(batch.matrices, batch.matrices.conj().transpose(0, 2, 1))
    theta_hat, _ = run_iht(batch, y)
    eps = y - apply_design(batch, theta)
    remainder, noise_term, total = decomposition_terms(batch, y, theta_hat, theta, eps)
    assert np.allclose(remainder + noise_term, total, rtol=0, atol=1e-10)


@_FIXED
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4))
def test_sparse_iht_run_is_coordinate_permutation_equivariant(seed, k):
    # permuting X's columns and theta permutes the estimate; Sigma_hat and r_K
    # are summed in another order, so equality holds to rounding, not bitwise
    inst = gen_sparse_instance(400, 30, k, 1.0, seed)
    perm = np.random.default_rng(seed).permutation(inst.p)
    permuted = SparseInstance(x=inst.x[:, perm], y=inst.y, theta_truth=inst.theta_truth[perm])
    theta, thresholds = sparse_iht_run(inst, build_decorrelator(inst.x))
    theta_p, thresholds_p = sparse_iht_run(permuted, build_decorrelator(permuted.x))
    assert np.allclose(thresholds_p, thresholds, rtol=1e-12, atol=0)
    assert np.allclose(theta_p, theta[perm], rtol=1e-10, atol=1e-12)
