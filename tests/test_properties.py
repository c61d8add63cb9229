"""Property tests of the trace operator and the estimator, run by hypothesis.

Examples are drawn from a fixed seed (``derandomize=True``) so every run
checks the same cases, and each test stays under about a second.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowrank_iht import (
    DesignBatch,
    adjoint_apply,
    apply_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    run_iht,
    simulate_observations,
)

_FIXED = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_FIXED
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), d=st.integers(1, 6),
       complex_design=st.booleans())
@pytest.mark.filterwarnings("ignore:.*imaginary:RuntimeWarning")
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
