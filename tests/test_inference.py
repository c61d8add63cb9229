import math
import tracemalloc

import numpy as np
import pytest

from lowrank_iht import iht, inference, trace_model
from lowrank_iht.inference import (
    EntrywiseResult,
    confidence_intervals,
    decomposition_terms,
    entry_scale_matrix,
)
from lowrank_iht.iht import run_iht
from lowrank_iht.quantum import gen_density_matrix, simulate_dataset
from lowrank_iht.trace_model import (
    DesignBatch,
    adjoint_apply,
    apply_design,
    gen_basis_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    simulate_observations,
)

from _oracles import debias


def test_debias_matches_hand_computation():
    # two 2x2 designs, worked by hand:
    #   X1 = [[1,0],[0,0]], X2 = [[0,1],[1,0]], theta_hat = 0
    # y = (3, 4)  =>  correction = (1/2)(3 X1 + 4 X2)
    mats = np.array([[[1.0, 0.0], [0.0, 0.0]],
                     [[0.0, 1.0], [1.0, 0.0]]])
    batch = DesignBatch(mats)
    y = np.array([3.0, 4.0])
    theta_hat = np.zeros((2, 2))
    expected = 0.5 * (3.0 * mats[0] + 4.0 * mats[1])
    got = debias(batch, y, theta_hat)
    assert np.allclose(got, expected, atol=1e-14)
    # residual roles: with theta_hat nonzero only the residual is projected
    theta_hat = np.array([[1.0, 0.0], [0.0, 0.0]])
    resid = y - apply_design(batch, theta_hat)
    expected = theta_hat + adjoint_apply(batch, resid)
    assert np.allclose(debias(batch, y, theta_hat), expected, atol=1e-14)


def test_decomposition_is_an_exact_identity():
    # sqrt(n) (debias - truth) splits into remainder + noise with no slack
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(30, 90))
        theta = gen_low_rank_theta(d, 2, rng.integers(1 << 31))
        batch = gen_gaussian_design(n, d, rng.integers(1 << 31))
        obs = simulate_observations(batch, theta, 0.7, rng.integers(1 << 31))
        theta_r = gen_low_rank_theta(d, 1, rng.integers(1 << 31))
        remainder, noise, total = decomposition_terms(
            batch, obs.values, theta_r, theta, obs.noise)
        debiased = debias(batch, obs.values, theta_r)
        lhs = math.sqrt(n) * (debiased - theta)
        assert np.allclose(lhs, total, atol=1e-10)
        assert np.allclose(total, remainder + noise, atol=1e-10)
        # noise term is sqrt(n) times the backprojected noise
        assert np.allclose(noise, math.sqrt(n) * adjoint_apply(batch, obs.noise),
                           atol=1e-10)


@pytest.mark.parametrize("data", ["gaussian", "pauli"])
def test_decomposition_total_is_the_interval_estimate_bit_for_bit(data):
    # the identity and the interval call debias one way: total is
    # sqrt(n) (confidence_intervals(...).estimate - theta) byte for byte
    for seed in range(4):
        if data == "gaussian":
            theta = gen_low_rank_theta(6, 2, seed)
            batch = gen_gaussian_design(200, 6, 10 + seed)
            y = simulate_observations(batch, theta, 0.7, 20 + seed).values
        else:
            theta = gen_density_matrix(8, 1, seed)
            batch, obs = simulate_dataset(theta, 16, 50, 10 + seed).to_trace_regression()
            y = obs.values
        estimate, _ = run_iht(batch, y)
        eps = y - apply_design(batch, theta)
        total = decomposition_terms(batch, y, estimate, theta, eps)[2]
        want = np.sqrt(batch.n) * (confidence_intervals(batch, y, estimate).estimate - theta)
        assert total.dtype == want.dtype
        assert total.tobytes() == want.tobytes()


def test_every_entry_point_refuses_a_malformed_observation_vector():
    # a length-1 y would broadcast over all n rows and a NaN y would give a
    # nan sigma; a valid vector comes back as the same array, so no output moves
    theta = gen_low_rank_theta(4, 1, 3)
    batch = gen_gaussian_design(100, 4, 1)
    obs = simulate_observations(batch, theta, 1.0, 2)
    entry_points = [
        lambda y: debias(batch, y, theta),
        lambda y: confidence_intervals(batch, y, theta),
        lambda y: decomposition_terms(batch, y, theta, theta, obs.noise),
        lambda y: run_iht(batch, y),
    ]
    malformed = [([5.0], r"y must have shape \(100,\)"),
                 (obs.values[:-1], r"y must have shape \(100,\)"),
                 (obs.values[:, None], r"y must have shape \(100,\)"),
                 (np.full(100, np.nan), "y must be finite"),
                 (np.r_[obs.values[:-1], np.inf], "y must be finite")]
    for call in entry_points:
        for y, message in malformed:
            with pytest.raises(ValueError, match=message):
                call(y)
    assert trace_model._obs_values(obs, 100) is obs.values
    assert trace_model._obs_values(obs.values, 100) is obs.values


def _gaussian_data():
    theta = gen_low_rank_theta(10, 2, 41)
    batch = gen_gaussian_design(700, 10, 42)
    return batch, simulate_observations(batch, theta, 0.5, 43)


def _pauli_data():
    theta = gen_density_matrix(8, 1, 44)
    return simulate_dataset(theta, 12, 200, 45).to_trace_regression()


@pytest.mark.parametrize("data", [_gaussian_data, _pauli_data], ids=["gaussian", "pauli"])
def test_confidence_intervals_make_one_forward_and_one_adjoint_pass(monkeypatch, data):
    batch, obs = data()
    estimate, state = run_iht(batch, obs)
    assert state.rank > 0
    with pytest.raises(ValueError, match="read-only"):
        estimate.flat[0] = 0.0
    # every design pass the package makes, whichever module makes it
    calls = []

    def counted(name, original):
        def call(b, a):
            calls.append(name)
            return original(b, a)
        return call

    for module in (iht, inference):
        for name in ("apply_design", "adjoint_apply"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    results = {}
    for form, kwargs in (("state", {"state": state}), ("sigma", {"sigma": state.final_sigma}),
                         ("neither", {})):
        calls.clear()
        results[form] = confidence_intervals(batch, obs, estimate, **kwargs)
        assert sorted(calls) == ["adjoint_apply", "apply_design"], form
    monkeypatch.undo()
    # every form debiases alike, and state= is sigma=state.final_sigma bit for bit
    recomputed = debias(batch, obs, estimate).tobytes()
    assert all(result.estimate.tobytes() == recomputed for result in results.values())
    assert results["state"].half_width.tobytes() == results["sigma"].half_width.tobytes()
    assert results["state"].sigma == results["sigma"].sigma == state.final_sigma
    # without either, sigma is the residual scale
    resid = obs.values - apply_design(batch, estimate)
    assert results["neither"].sigma == float(np.linalg.norm(resid) / np.sqrt(batch.n))


def test_entry_scale_is_one_for_basis_design():
    batch = gen_basis_design(4)
    scale = entry_scale_matrix(batch)
    assert np.allclose(scale, np.ones((4, 4)), atol=1e-14)


def test_entry_scale_matches_mean_square_loop():
    rng = np.random.default_rng(7)
    mats = rng.standard_normal((12, 3, 3)) + 1j * rng.standard_normal((12, 3, 3))
    batch = DesignBatch(mats)
    scale = entry_scale_matrix(batch)
    for a in range(3):
        for b in range(3):
            acc = sum(abs(mats[i, a, b]) ** 2 for i in range(12)) / 12
            assert scale[a, b] == pytest.approx(math.sqrt(acc), rel=1e-12)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [3, 4, 11])
def test_blocked_entry_scale_is_bitwise_equal_to_the_one_pass_mean(monkeypatch, kind, n):
    # 4 rows per block: n below, equal to, and not a multiple of the block
    monkeypatch.setattr(trace_model, "_block_rows", lambda arr: 4)
    rng = np.random.default_rng(n)
    mats = rng.standard_normal((n, 3, 3))
    if kind == "complex":
        mats = mats + 1j * rng.standard_normal((n, 3, 3))
    batch = DesignBatch(mats)
    want = np.sqrt(np.mean(np.abs(batch.matrices) ** 2, axis=0))
    assert entry_scale_matrix(batch).tobytes() == want.tobytes()


def test_generated_batches_give_the_bits_of_the_one_pass_mean():
    theta = gen_density_matrix(8, 1, 3)
    batches = [gen_gaussian_design(1500, 16, 1), gen_gaussian_design(3, 5, 2),
               gen_basis_design(6),
               simulate_dataset(theta, 40, 80, 4).to_trace_regression()[0],
               simulate_dataset(gen_density_matrix(2, 1, 5), 3, 4, 6).to_trace_regression()[0]]
    for batch in batches:
        want = np.sqrt(np.mean(np.abs(batch.matrices) ** 2, axis=0))
        assert entry_scale_matrix(batch).tobytes() == want.tobytes()
        assert not batch.entry_energy.flags.writeable


def test_entry_scale_allocates_far_less_than_the_design():
    batch = DesignBatch(np.random.default_rng(8).standard_normal((2048, 32, 32)))
    assert batch.matrices.nbytes >= 16 * 2**20
    tracemalloc.start()
    try:
        entry_scale_matrix(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * batch.matrices.nbytes


def _normal_quantile_oracle(p):
    # Acklam's rational approximation (central branch is all we need here)
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def test_quantile_conventions():
    # oracle first, then the frozen values the code must reproduce
    assert _normal_quantile_oracle(0.95) == pytest.approx(1.6448536269514722, abs=2e-9)
    assert _normal_quantile_oracle(0.975) == pytest.approx(1.959963984540054, abs=2e-9)
    # level is two-sided coverage: q = z_{(1+level)/2}, so the default 0.95
    # gives z_0.975 and 0.90 gives z_0.95
    batch = gen_basis_design(3)
    res = confidence_intervals(batch, np.zeros(9), np.zeros((3, 3)), sigma=1.0)
    assert res.quantile == pytest.approx(1.959963984540054, rel=1e-12)
    res2 = confidence_intervals(batch, np.zeros(9), np.zeros((3, 3)), sigma=1.0,
                                level=0.90)
    assert res2.quantile == pytest.approx(1.6448536269514722, rel=1e-12)


def test_half_width_formula():
    batch = gen_basis_design(4)
    n = batch.n
    y, theta_hat = np.zeros(n), np.zeros((4, 4))

    def half_width(sigma, **kwargs):
        return confidence_intervals(batch, y, theta_hat, sigma=sigma, **kwargs).half_width

    expected = 2.0 * 1.959963984540054 / math.sqrt(n)
    assert np.allclose(half_width(2.0), np.full((4, 4), expected), atol=1e-13)
    expected2 = 2.0 * 1.6448536269514722 / math.sqrt(n)
    assert np.allclose(half_width(2.0, level=0.90),
                       np.full((4, 4), expected2), atol=1e-13)
    assert np.all(half_width(0.0) == 0.0)
    with pytest.raises(ValueError):
        half_width(-1.0)
    with pytest.raises(ValueError):
        half_width(1.0, level=1.0)


@pytest.mark.parametrize("sigma, level", [(1.0, 1.0), (1.0, 0.0), (1.0, 1.5),
                                          (-1.0, 0.95), (math.nan, 0.95),
                                          (math.inf, 0.95)])
def test_confidence_intervals_rejects_bad_sigma_and_level(sigma, level):
    # level 1 or 0 would give infinite half-widths, a negative sigma negative
    # ones, a NaN or infinite sigma NaN or infinite ones
    batch = gen_basis_design(3)
    with pytest.raises(ValueError, match="must"):
        confidence_intervals(batch, np.zeros(9), np.zeros((3, 3)), sigma=sigma,
                             level=level)


def test_result_bounds_and_covers():
    est = np.array([[1.0 + 0.5j, 0.0], [0.0, -2.0]])
    hw = np.full((2, 2), 0.6)
    res = EntrywiseResult(estimate=est, half_width=hw, sigma=1.0, level=0.95)
    # the quantile is read off the level, so it cannot disagree with it
    assert res.quantile == pytest.approx(1.959963984540054, rel=1e-12)
    assert res.lower[0, 0] == pytest.approx(0.4)
    assert res.upper[0, 0] == pytest.approx(1.6)
    # complex truth covered only when both parts sit inside the box
    truth = np.array([[1.2 + 0.2j, 0.0], [0.0, -2.0]])
    assert res.covers(truth)[0, 0]
    truth_bad_imag = np.array([[1.2 + 1.2j, 0.0], [0.0, -2.0]])
    assert not res.covers(truth_bad_imag)[0, 0]
    truth_bad_real = np.array([[2.0 + 0.0j, 0.0], [0.0, -2.0]])
    assert not res.covers(truth_bad_real)[0, 0]
    assert res.coverage_rate(truth) == pytest.approx(1.0)
    assert res.coverage_rate(truth_bad_imag) == pytest.approx(3.0 / 4.0)
    with pytest.raises(ValueError):
        res.covers(np.zeros((3, 3)))


@pytest.mark.parametrize("kwargs, match", [
    ({"half_width": np.array([[0.6, np.nan], [0.6, 0.6]])}, "half_width must be finite"),
    ({"half_width": np.full(3, 0.6)}, r"half_width must have shape \(2, 2\)"),
    ({"half_width": np.full((2, 2), 0.6j)}, "half_width must hold real numbers"),
    ({"estimate": np.array([[np.inf, 0.0], [0.0, 1.0]])}, "estimate must be finite"),
    ({"level": 1.5}, r"level must be in \(0, 1\)"),
    ({"sigma": -1.0}, r"sigma must be in \[0, inf\)"),
    ({"sigma": "1.0"}, "sigma must be a number"),
], ids=["nan-half-width", "short-half-width", "complex-half-width", "inf-estimate",
        "level-above-one", "negative-sigma", "str-sigma"])
def test_result_refuses_what_its_intervals_cannot_use(kwargs, match):
    # unchecked, a NaN half-width would read as "not covered", a short one
    # would fail only in covers() with a broadcast error, and level=1.5 only
    # in .quantile
    fields = {"estimate": np.eye(2), "half_width": np.full((2, 2), 0.6), "sigma": 1.0,
              "level": 0.95, **kwargs}
    with pytest.raises(ValueError, match=f"^{match}"):
        EntrywiseResult(**fields)


def test_result_holds_read_only_arrays_built_from_lists():
    # the checked values are the ones held
    res = EntrywiseResult(estimate=[[1.0, 0.0], [0.0, 1.0]], half_width=[[1, 1], [1, 1]],
                          sigma=np.float64(2.0), level=0.9)
    assert res.half_width.dtype == np.float64 and type(res.sigma) is float
    for held in (res.estimate, res.half_width):
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 0.0
    assert res.covers(np.eye(2)).all()


def test_sigma_defaults_to_final_state_sigma():
    d, n = 8, 700
    theta = gen_low_rank_theta(d, 2, 11)
    batch = gen_gaussian_design(n, d, 12)
    obs = simulate_observations(batch, theta, 1.0, 13)
    est, state = run_iht(batch, obs)
    res = confidence_intervals(batch, obs.values, est, state=state)
    assert res.sigma == state.final_sigma
    explicit = confidence_intervals(batch, obs.values, est, sigma=state.final_sigma)
    assert np.allclose(res.half_width, explicit.half_width, atol=1e-14)
    # with neither sigma nor state, falls back to the residual scale at theta_hat
    fallback = confidence_intervals(batch, obs.values, est)
    resid = obs.values - apply_design(batch, est)
    assert fallback.sigma == pytest.approx(float(np.linalg.norm(resid) / math.sqrt(n)),
                                           rel=1e-12)


def test_a_long_double_design_gives_the_float64_fit_and_intervals():
    # LAPACK has no extended-precision SVD, so a long double design used to
    # stop run_iht with "array type float128 is unsupported in linalg"; it
    # is held as float64 now, which holds these values exactly
    theta = gen_low_rank_theta(4, 1, 5)
    batch = gen_gaussian_design(300, 4, 6)
    obs = simulate_observations(batch, theta, 0.5, 7)
    wide = DesignBatch(batch.matrices.astype(np.longdouble))
    est, state = run_iht(wide, obs)
    res = confidence_intervals(wide, obs, est, state=state)
    assert np.all(np.isfinite(res.estimate)) and np.all(np.isfinite(res.half_width))
    est64, state64 = run_iht(batch, obs)
    assert est.tobytes() == est64.tobytes()
    res64 = confidence_intervals(batch, obs, est64, state=state64)
    assert res.half_width.tobytes() == res64.half_width.tobytes()


def test_default_sigma_matches_hand_loop():
    rng = np.random.default_rng(4)
    batch = DesignBatch(rng.standard_normal((6, 3, 3)))
    y = rng.standard_normal(6)
    theta = rng.standard_normal((3, 3))
    resid = [y[i] - np.trace(batch.matrices[i].T @ theta) for i in range(6)]
    expected = math.sqrt(sum(r * r for r in resid) / 6)
    assert confidence_intervals(batch, y, theta).sigma == pytest.approx(expected, rel=1e-12)


def test_monte_carlo_coverage_is_in_a_sane_band():
    # loose check: per-entry marginal coverage at the default two-sided 95%
    # level should land well above one-half and at/below one
    d, n = 6, 1500
    theta = gen_low_rank_theta(d, 1, 21)
    rng = np.random.default_rng(22)
    hits = []
    for rep in range(40):
        batch = gen_gaussian_design(n, d, rng.integers(1 << 31))
        obs = simulate_observations(batch, theta, 1.0, rng.integers(1 << 31))
        est, state = run_iht(batch, obs)
        res = confidence_intervals(batch, obs.values, est, state=state)
        hits.append(res.coverage_rate(theta))
    mean_cov = float(np.mean(hits))
    assert 0.8 <= mean_cov <= 1.0
