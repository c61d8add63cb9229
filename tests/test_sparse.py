import itertools
import math

import numpy as np
import pytest

from lowrank_iht import sparse
from lowrank_iht.linalg import hard_threshold_entries
from lowrank_iht.sparse import (
    AssumptionViolationError,
    Decorrelator,
    RowProgramInfeasibleError,
    SparseConfig,
    SparseInstance,
    build_decorrelator,
    gen_sparse_instance,
    largest_feasible_k,
    sparse_confidence_intervals,
    sparse_iht_run,
)

from _oracles import desparsify, estimate_r_k, sparse_decomposition_terms


def _r_k_oracle(v, sigma_hat, k):
    # literal sup over k-sparse sign vectors, every support and sign pattern
    p = sigma_hat.shape[0]
    m = v @ sigma_hat - np.eye(p)
    best = 0.0
    for support in itertools.combinations(range(p), k):
        for signs in itertools.product((-1.0, 1.0), repeat=k):
            u = np.zeros(p)
            u[list(support)] = signs
            best = max(best, float(np.max(np.abs(m @ u))))
    return best


def test_r_k_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(6):
        x = rng.standard_normal((30, 6))
        sigma_hat = build_decorrelator(x).sigma_hat
        v = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
        for k in (1, 2, 3):
            assert estimate_r_k(v, sigma_hat, k) == pytest.approx(
                _r_k_oracle(v, sigma_hat, k), rel=1e-12)


def test_r_k_monotone_and_full_row_sum():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 5))
    sigma_hat = build_decorrelator(x).sigma_hat
    v = np.eye(5)
    vals = [estimate_r_k(v, sigma_hat, k) for k in range(1, 6)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    m = v @ sigma_hat - np.eye(5)
    assert vals[-1] == pytest.approx(float(np.abs(m).sum(axis=1).max()), rel=1e-12)
    with pytest.raises(ValueError):
        estimate_r_k(v, sigma_hat, 0)
    with pytest.raises(ValueError):
        estimate_r_k(v, sigma_hat, 6)


def test_orthogonal_design_has_zero_r_k():
    rng = np.random.default_rng(9)
    n, p = 60, 8
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    x = math.sqrt(n) * q
    dec = build_decorrelator(x)
    for k in (1, 4, 8):
        assert dec.r_k(k) < 1e-12


def test_gaussian_covariance_concentrates():
    # ||Sigma_hat - I||_inf stays under 3 sqrt(log p / n) for nearly all draws
    n, p = 800, 100
    bound = 3.0 * math.sqrt(math.log(p) / n)
    hits = 0
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal((n, p))
        dev = float(np.max(np.abs(x.T @ x / n - np.eye(p))))
        hits += dev <= bound
    assert hits >= 48


def test_decorrelator_keeps_no_writable_certificate_cache():
    # a public r_k cache let `dec.certified_r[3] = 0.0` turn a refused
    # 2 r_3 = 1.01 into a run that returned 5 false support entries; r_k now
    # partitions the read-only |V Sigma - I| on each call
    inst = gen_sparse_instance(400, 100, 3, 1.0, 0)
    dec = build_decorrelator(inst.x)
    assert not hasattr(dec, "certified_r")
    assert [dec.r_k(k) for k in (1, 2, 3)] == [dec.r_k(k) for k in (1, 2, 3)]
    assert 2.0 * dec.r_k(3) > 1.0
    with pytest.raises(AssumptionViolationError):
        sparse_iht_run(inst, dec, SparseConfig(k_cap=3))


def test_certificates_cannot_be_passed_in():
    # a passed-in r_k would be trusted unchecked and set the contraction factor
    x = np.random.default_rng(14).standard_normal((40, 5))
    with pytest.raises(TypeError):
        Decorrelator(np.eye(5), x.T @ x / 40, certified_r={1: 0.0})


def test_decorrelator_computes_vsv_diag_once(monkeypatch):
    # a row-program V, since the identity reads diag(Sigma) without einsum
    inst = gen_sparse_instance(60, 8, 2, 1.0, 5)
    dec = build_decorrelator(inst.x, "row_program")
    expected = np.einsum("ij,jk,ik->i", dec.v, dec.sigma_hat, dec.v)
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    theta, _ = sparse_iht_run(inst, dec)
    for level in (0.9, 0.95):
        ci = sparse_confidence_intervals(theta, inst, dec, sigma=1.0, level=level)
        assert ci.half_width.tobytes() == (
            np.sqrt(expected / inst.n) * ci.quantile).tobytes()
    assert calls == ["ij,jk,ik->i"]
    assert dec.vsv_diag.tobytes() == expected.tobytes()


def test_identity_decorrelator_skips_products_with_the_same_bits(monkeypatch):
    # apply, vsv_diag and r_k against the dense-identity formulas they replace
    inst = gen_sparse_instance(200, 30, 3, 1.0, 8)
    dec = build_decorrelator(inst.x)
    eye = np.eye(inst.p)
    expected_diag = np.einsum("ij,jk,ik->i", eye, dec.sigma_hat, eye)
    expected_r = [estimate_r_k(eye, dec.sigma_hat, k) for k in range(1, inst.p + 1)]
    products = []
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: products.append(args))
    # a -0.0 entry comes back +0.0, as from the sum that eye @ m forms
    small = Decorrelator(np.eye(4), np.eye(4))
    signed = np.array([0.0, -0.0, 1.5, -2.5])
    resid = inst.y - inst.x @ inst.theta_truth
    for d, m in ((dec, inst.x.T @ inst.y), (dec, inst.x.T), (dec, dec.sigma_hat),
                 (dec, inst.x.T @ resid), (small, signed),
                 (small, signed[:, None] * np.ones((4, 3)))):
        got = d.apply(m)
        assert got.flags.c_contiguous and got is not m
        assert got.tobytes() == (np.eye(d.p) @ m).tobytes()
    assert dec.vsv_diag.tobytes() == expected_diag.tobytes()
    assert [dec.r_k(k) for k in range(1, inst.p + 1)] == expected_r
    assert products == []
    with pytest.raises(ValueError, match="need 1 <= k <= p"):
        dec.r_k(inst.p + 1)


def test_decorrelator_forms_its_gap_once_for_every_level(monkeypatch):
    inst = gen_sparse_instance(60, 8, 2, 1.0, 5)
    for strategy in ("identity", "row_program"):
        dec = build_decorrelator(inst.x, strategy)
        gaps = []
        absolute = np.abs
        monkeypatch.setattr(np, "abs", lambda a: gaps.append(a.shape) or absolute(a))
        values = [dec.r_k(k) for k in range(1, 9)]
        monkeypatch.undo()
        assert gaps == [(8, 8)]
        assert values == [estimate_r_k(dec.v, dec.sigma_hat, k) for k in range(1, 9)]


def test_row_program_approximates_inverse_when_well_conditioned():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4000, 5))
    mu = 1e-3
    dec = build_decorrelator(x, strategy="row_program", mu=mu)
    inv = np.linalg.inv(dec.sigma_hat)
    assert float(np.max(np.abs(dec.v - inv))) < 5e-3
    # each row satisfies its own feasibility certificate for the mu passed,
    # ||V Sigma - I||_inf <= mu up to the solver's stationarity tolerance
    gap = dec.v @ dec.sigma_hat - np.eye(5)
    assert float(np.max(np.abs(gap))) <= mu + 1e-5


def test_row_program_infeasible_with_duplicated_column():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((50, 4))
    x[:, 3] = x[:, 2]
    with pytest.raises(RowProgramInfeasibleError) as exc:
        build_decorrelator(x, strategy="row_program", mu=0.1)
    err = exc.value
    # rows 0 and 1 are solvable; the first contradiction is row 2, where the
    # duplicated pair pins (Sigma v)_2 = (Sigma v)_3 but the targets differ
    # by 1, so feasibility needs mu >= 1/2
    assert err.row == 2
    assert abs(err.smallest_feasible_mu - 0.5) < 0.05
    assert "row 2" in str(err)


def test_exactly_orthogonal_design_recovers_in_one_iteration():
    # X = sqrt(n) I makes Sigma_hat the identity exactly (n = 4 keeps the
    # square root representable), so gamma = 0 and the run collapses to a
    # single unshrunk thresholding
    p = 4
    theta = np.zeros(p)
    theta[[1, 3]] = [2.0, -1.5]
    x = 2.0 * np.eye(p)
    inst = SparseInstance(x=x, y=x @ theta, theta_truth=theta,
                          realized_noise=np.zeros(p))
    dec = build_decorrelator(x)
    assert dec.r_k(p) == 0.0
    est, trace = sparse_iht_run(inst, dec, SparseConfig(upsilon=0.0, t0=1.0))
    assert len(trace) == 1
    assert np.allclose(est, theta, atol=1e-12)


def test_qr_orthogonal_noiseless_recovery():
    rng = np.random.default_rng(23)
    n, p, k = 80, 10, 3
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    x = math.sqrt(n) * q
    theta = np.zeros(p)
    theta[rng.choice(p, k, replace=False)] = rng.uniform(1.0, 3.0, k)
    inst = SparseInstance(x=x, y=x @ theta)
    dec = build_decorrelator(x)
    est, trace = sparse_iht_run(inst, dec, SparseConfig(upsilon=0.0, t0=1.0,
                                                       k_cap=2 * k))
    assert len(trace) == 1
    assert np.allclose(est, theta, atol=1e-10)
    assert set(np.nonzero(est)[0]) == set(np.nonzero(theta)[0])


def test_pure_noise_stays_fully_truncated(monkeypatch):
    rng = np.random.default_rng(29)
    n, p = 400, 100
    x = rng.standard_normal((n, p))
    inst = SparseInstance(x=x, y=rng.standard_normal(n))
    dec = build_decorrelator(x)
    calls = []

    def counting(u, threshold):
        calls.append(threshold)
        return hard_threshold_entries(u, threshold)

    monkeypatch.setattr(sparse, "hard_threshold_entries", counting)
    est, thresholds = sparse_iht_run(inst, dec, SparseConfig(k_cap=2))
    assert np.all(est == 0.0)
    # no entry ever reaches the threshold, so every iteration is idle and
    # the thresholding is skipped outright
    assert len(thresholds) > 1
    assert calls == []


def test_threshold_recursion_closed_form():
    inst = gen_sparse_instance(600, 40, 2, 1.0, 31)
    dec = build_decorrelator(inst.x)
    k_cap, ups, t0 = 4, 0.2, 5.0
    gamma = 2.0 * dec.r_k(k_cap)
    assert 0.0 < gamma < 1.0
    _, thresholds = sparse_iht_run(inst, dec,
                                   SparseConfig(k_cap=k_cap, upsilon=ups, t0=t0))
    assert len(thresholds) == max(1, math.ceil(math.log(600) / math.log(1.0 / gamma)))
    plateau = ups / (1.0 - gamma)
    for r, threshold in enumerate(thresholds, start=1):
        closed = gamma ** r * (t0 - plateau) + plateau
        assert threshold == pytest.approx(closed, rel=1e-12)


def _plain_sparse_loop(inst, dec, config):
    # the scheme as stated, with no idle skip: every iteration recomputes the
    # backprojection at the current estimate and thresholds it
    n, p = inst.n, inst.p
    k_cap = config.k_cap if config.k_cap is not None else largest_feasible_k(dec, p)
    gamma = 2.0 * dec.r_k(k_cap)
    ups = config.upsilon
    if ups is None:
        ups = 2.0 * math.sqrt(float(dec.vsv_diag.max()) * math.log(p / 0.05) / n)
    t = config.t0
    if t is None:
        t = float(np.max(np.abs(dec.v @ (inst.x.T @ inst.y) / n))) + 2.0 * ups
    iters = 1 if gamma == 0.0 else max(1, math.ceil(math.log(n) / math.log(1.0 / gamma)))
    vxt = dec.v @ inst.x.T
    theta = np.zeros(p)
    thresholds = []
    for _ in range(iters):
        t = gamma * t + ups
        thresholds.append(t)
        theta = theta + hard_threshold_entries(vxt @ (inst.y - inst.x @ theta) / n, t)
    return theta, iters, np.array(thresholds)


def test_sparse_run_equals_the_plain_loop():
    cases = [(gen_sparse_instance(400, 100, 3, 1.0, seed), SparseConfig())
             for seed in range(20)]
    cases.append((gen_sparse_instance(600, 40, 2, 1.0, 31),
                  SparseConfig(k_cap=4, upsilon=0.2, t0=5.0)))
    # X = 2 I makes Sigma_hat the identity exactly, so gamma = 0
    x = 2.0 * np.eye(4)
    cases.append((SparseInstance(x=x, y=x @ np.array([0.0, 2.0, 0.0, -1.5])),
                  SparseConfig(upsilon=0.0, t0=1.0)))
    for inst, config in cases:
        dec = build_decorrelator(inst.x)
        theta, thresholds = sparse_iht_run(inst, dec, config)
        plain_theta, iters, plain_thresholds = _plain_sparse_loop(inst, dec, config)
        assert thresholds.dtype == np.float64
        assert len(thresholds) == iters
        assert theta.tobytes() == plain_theta.tobytes()
        assert thresholds.tobytes() == plain_thresholds.tobytes()
    # the last case is the orthogonal one: gamma = 0, a single iteration
    assert dec.r_k(4) == 0.0 and iters == 1


def test_worst_default_cell_seed_runs_its_full_count_at_eight_bytes_each():
    # seed 1642 of the default sparse cell certifies K = 3 with
    # 2 r_K = 0.9999957, so the fixed count is 1,399,125 iterations; the
    # threshold's fixed point lies far above every backprojected entry, so
    # nothing ever survives and the estimate stays zero
    inst = gen_sparse_instance(400, 100, 3, 1.0, 1642)
    dec = build_decorrelator(inst.x)
    theta, thresholds = sparse_iht_run(inst, dec)
    assert thresholds.dtype == np.float64
    assert len(thresholds) == 1_399_125
    assert np.all(theta == 0.0)


def test_assumption_violation_raised():
    inst = gen_sparse_instance(200, 30, 2, 1.0, 37)
    dec = build_decorrelator(inst.x)
    # at K = p the certificate cannot hold for a Gaussian design this small
    assert 2.0 * dec.r_k(30) >= 1.0
    with pytest.raises(AssumptionViolationError):
        sparse_iht_run(inst, dec, SparseConfig(k_cap=30))


def test_final_error_within_twice_final_threshold():
    # the working guarantee behind the schedule: after the last iteration the
    # sup-norm error is at most 2 T_final (checked on instances that stay
    # inside the certified regime)
    for seed in (41, 43, 47, 53, 59):
        inst = gen_sparse_instance(600, 40, 2, 0.5, seed)
        dec = build_decorrelator(inst.x)
        k_cap = largest_feasible_k(dec, 4)
        est, thresholds = sparse_iht_run(inst, dec, SparseConfig(k_cap=k_cap))
        err = float(np.max(np.abs(est - inst.theta_truth)))
        limit = 2.0 * thresholds[-1]
        assert err <= limit
        # coordinates above the detection limit cannot be missed
        detectable = set(np.nonzero(np.abs(inst.theta_truth) > limit)[0])
        assert detectable <= set(np.nonzero(est)[0])


def test_largest_feasible_k_exact_on_crafted_matrix():
    # V Sigma - I = a (J - I) gives r_k = a k exactly, so the bisection must
    # return floor of 1 / (2a) (minus the diagonal-free structure’s offset)
    p, a = 10, 0.08
    sigma = np.eye(p) + a * (np.ones((p, p)) - np.eye(p))
    dec = Decorrelator(v=np.eye(p), sigma_hat=sigma)
    for k in (1, 3, 6):
        assert dec.r_k(k) == pytest.approx(a * k, rel=1e-12)
    assert largest_feasible_k(dec, p) == 6
    assert largest_feasible_k(dec, 3) == 3
    bad = Decorrelator(v=np.eye(p),
                       sigma_hat=np.eye(p) + 0.6 * (np.ones((p, p)) - np.eye(p)))
    with pytest.raises(AssumptionViolationError):
        largest_feasible_k(bad, p)


def test_desparsify_hand_example_and_fixed_point():
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    inst = SparseInstance(x=x, y=np.array([3.0, 4.0]))
    dec = build_decorrelator(x)
    got = desparsify(np.array([1.0, 1.0]), inst, dec)
    # correction = V X^T (y - X theta) / n = (2, 4) / 2 with V = I
    assert np.allclose(got, [2.0, 3.0], atol=1e-14)
    # noiseless truth is a fixed point
    theta = np.array([0.5, -2.0])
    inst2 = SparseInstance(x=x, y=x @ theta)
    assert np.allclose(desparsify(theta, inst2, dec), theta, atol=1e-12)
    with pytest.raises(ValueError):
        desparsify(np.zeros(3), inst, dec)


def test_sparse_decomposition_identity():
    rng = np.random.default_rng(61)
    for _ in range(10):
        inst = gen_sparse_instance(80, 12, 3, 0.7, rng.integers(1 << 31))
        dec = build_decorrelator(inst.x)
        theta_r = np.zeros(12)
        theta_r[:3] = rng.standard_normal(3)
        remainder, noise, total = sparse_decomposition_terms(theta_r, inst, dec)
        assert np.allclose(remainder + noise, total, atol=1e-10)
        root_n = math.sqrt(inst.n)
        lhs = root_n * (desparsify(theta_r, inst, dec) - inst.theta_truth)
        assert np.allclose(lhs, total, atol=1e-10)
    bare = SparseInstance(x=inst.x, y=inst.y)
    with pytest.raises(ValueError):
        sparse_decomposition_terms(theta_r, bare, dec)


def test_interval_half_width_formula():
    rng = np.random.default_rng(67)
    x = rng.standard_normal((50, 4))
    inst = SparseInstance(x=x, y=rng.standard_normal(50))
    dec = build_decorrelator(x)
    res = sparse_confidence_intervals(np.zeros(4), inst, dec, sigma=2.0)
    z = 1.959963984540054
    for j in range(4):
        expected = 2.0 * math.sqrt(dec.sigma_hat[j, j] / 50) * z
        assert res.half_width[j] == pytest.approx(expected, rel=1e-12)
    zero = sparse_confidence_intervals(np.zeros(4), inst, dec, sigma=0.0)
    assert np.all(zero.half_width == 0.0)
    assert np.all(zero.covers(zero.estimate))
    for bad_sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"sigma must be in \[0, inf\)"):
            sparse_confidence_intervals(np.zeros(4), inst, dec, sigma=bad_sigma)
    with pytest.raises(ValueError):
        sparse_confidence_intervals(np.zeros(4), inst, dec, sigma=1.0, level=0.0)


@pytest.mark.parametrize("length", [1, 7, 11])
def test_intervals_refuse_an_estimate_of_the_wrong_length(length):
    # a length-1 estimate used to broadcast against the p half-widths, and a
    # length-7 one built a result that failed only when read
    rng = np.random.default_rng(68)
    x = rng.standard_normal((50, 10))
    inst = SparseInstance(x=x, y=rng.standard_normal(50))
    dec = build_decorrelator(x)
    with pytest.raises(ValueError, match=r"estimate must have shape \(10,\)"):
        sparse_confidence_intervals(np.zeros(length), inst, dec, sigma=1.0)
    with pytest.raises(ValueError, match=r"estimate must have shape \(10,\)"):
        sparse_confidence_intervals(np.zeros((10, 1)), inst, dec, sigma=1.0)


def test_a_decorrelator_for_another_p_is_refused():
    # a p=1 decorrelator on a p=10 instance used to return a length-1
    # half_width and to run the iterations on the wrong certificate
    inst = gen_sparse_instance(60, 10, 2, 1.0, 1)
    dec = build_decorrelator(inst.x[:, :1])
    for call in (lambda: sparse_iht_run(inst, dec, SparseConfig(k_cap=1)),
                 lambda: desparsify(np.zeros(10), inst, dec),
                 lambda: sparse_confidence_intervals(np.zeros(10), inst, dec),
                 lambda: sparse_confidence_intervals(np.zeros(10), inst, dec, sigma=1.0)):
        with pytest.raises(ValueError, match=r"decorrelator has p=1 but the instance has p=10"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_estimate_is_refused(bad):
    # it used to come back as a NaN estimate (or, without sigma, as a
    # misleading "sigma must be finite")
    inst = gen_sparse_instance(60, 10, 2, 1.0, 1)
    dec = build_decorrelator(inst.x)
    theta_r = np.zeros(10)
    theta_r[3] = bad
    for call in (lambda: sparse_confidence_intervals(theta_r, inst, dec, sigma=1.0),
                 lambda: sparse_confidence_intervals(theta_r, inst, dec),
                 lambda: desparsify(theta_r, inst, dec)):
        with pytest.raises(ValueError, match="estimate must be finite"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_design_is_refused_by_the_decorrelator(bad):
    # its covariance used to come back NaN, which then certified K = 1
    x = gen_sparse_instance(60, 10, 2, 1.0, 1).x.copy()
    x[4, 3] = bad
    for strategy in ("identity", "row_program"):
        with pytest.raises(ValueError, match="x must be finite"):
            build_decorrelator(x, strategy)


def test_a_nan_r_k_fails_the_certificate(monkeypatch):
    # 2 r_K >= 1 is False for a NaN r_K, so largest_feasible_k used to return
    # 1 and sparse_iht_run to die on ceil(NaN) iterations. A NaN Sigma is
    # refused when the decorrelator is built. Finite V and Sigma could still
    # give a NaN r_K where V Sigma forms inf - inf, but a BLAS that fuses
    # multiply and add rounds such a product to inf, so the NaN is fed in
    inst = gen_sparse_instance(60, 10, 2, 1.0, 1)
    sigma_hat = inst.x.T @ inst.x / inst.n
    sigma_hat[3, 5] = sigma_hat[5, 3] = math.nan
    with pytest.raises(ValueError, match="sigma_hat must be finite"):
        Decorrelator(v=np.eye(10), sigma_hat=sigma_hat)
    monkeypatch.setattr(sparse, "_top_k_row_sum", lambda absm, k: math.nan)
    dec = build_decorrelator(inst.x)
    assert math.isnan(dec.r_k(1))
    with pytest.raises(AssumptionViolationError):
        largest_feasible_k(dec, 5)
    with pytest.raises(AssumptionViolationError):
        sparse_iht_run(inst, dec, SparseConfig(k_cap=1))


def test_interval_bounds_and_covers():
    res = sparse_confidence_intervals(
        np.array([1.0, -2.0]),
        SparseInstance(x=np.eye(2), y=np.zeros(2)),
        build_decorrelator(np.eye(2) * math.sqrt(2)),
        sigma=1.0, level=0.9)
    assert np.allclose(res.lower, res.estimate - res.half_width)
    assert np.allclose(res.upper, res.estimate + res.half_width)
    inside = res.estimate + 0.5 * res.half_width
    outside = res.estimate + 2.0 * res.half_width
    assert np.all(res.covers(inside))
    assert not np.any(res.covers(outside))


@pytest.mark.parametrize("strategy", ["identity", "row_program"])
def test_intervals_equal_desparsify_and_the_residual_scale(strategy):
    # the one call debiases the thresholded estimate itself: its estimate,
    # sigma and half-widths have the bits of desparsify(theta_r) with the
    # residual scale ||Y - X theta_r|| / sqrt(n) as sigma
    for seed in range(4):
        inst = gen_sparse_instance(1000, 20, 3, 0.5, 900 + seed)
        dec = build_decorrelator(inst.x, strategy)
        theta_r, _ = sparse_iht_run(inst, dec, SparseConfig(k_cap=largest_feasible_k(dec, 3)))
        assert np.count_nonzero(theta_r) > 0
        sigma = float(np.linalg.norm(inst.y - inst.x @ theta_r) / math.sqrt(inst.n))
        res = sparse_confidence_intervals(theta_r, inst, dec, level=0.9)
        assert res.estimate.tobytes() == desparsify(theta_r, inst, dec).tobytes()
        assert res.sigma == sigma
        assert res.half_width.tobytes() == (
            sigma * np.sqrt(dec.vsv_diag / inst.n) * res.quantile).tobytes()
    # sigma and level are keyword-only, so a call in the old form (a
    # desparsified estimate and sigma by position) cannot debias twice
    with pytest.raises(TypeError):
        sparse_confidence_intervals(res.estimate, inst, dec, sigma)


def test_support_recovery_rate():
    # n large enough that the threshold plateau sits well below the smallest
    # signal amplitude, so full support recovery is the expected outcome
    recovered = 0
    for seed in range(20):
        inst = gen_sparse_instance(6000, 100, 3, 1.0, 700 + seed)
        dec = build_decorrelator(inst.x)
        k_cap = largest_feasible_k(dec, 6)
        est, _ = sparse_iht_run(inst, dec, SparseConfig(k_cap=k_cap))
        truth_support = set(np.nonzero(inst.theta_truth)[0])
        if truth_support <= set(np.nonzero(est)[0]):
            recovered += 1
    assert recovered >= 18


def test_gen_sparse_instance_shape_and_determinism():
    inst = gen_sparse_instance(50, 20, 4, 0.3, 71)
    again = gen_sparse_instance(50, 20, 4, 0.3, 71)
    assert np.array_equal(inst.x, again.x)
    assert np.array_equal(inst.y, again.y)
    assert np.count_nonzero(inst.theta_truth) == 4
    nz = inst.theta_truth[inst.theta_truth != 0]
    assert np.all((np.abs(nz) >= 1.0) & (np.abs(nz) <= 3.0))
    assert np.allclose(inst.y, inst.x @ inst.theta_truth + inst.realized_noise,
                       atol=1e-12)
    at_truth = sparse_confidence_intervals(inst.theta_truth, inst, build_decorrelator(inst.x))
    assert at_truth.sigma == pytest.approx(
        float(np.linalg.norm(inst.realized_noise)) / math.sqrt(50), rel=1e-12)
    with pytest.raises(ValueError):
        gen_sparse_instance(50, 20, 0, 0.3, 71)
    for noise_std in (-0.3, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"noise_std must be in \[0, inf\)"):
            gen_sparse_instance(50, 20, 4, noise_std, 71)


def test_decorrelator_arrays_are_read_only():
    # a NaN written into the caller's Sigma after construction used to reach
    # r_K and the half-widths without an error
    s = np.eye(4)
    dec = Decorrelator(np.eye(4), s)
    for held in (s, dec.v, dec.sigma_hat):
        with pytest.raises(ValueError, match="read-only"):
            held[2, 2] = np.nan
    assert dec.r_k(1) == 0.0


def test_decorrelator_derived_arrays_are_read_only():
    # a zeroed vsv_diag entry gave a half-width of 0.0 for its coordinate
    for dec in (build_decorrelator(gen_sparse_instance(60, 8, 2, 1.0, 5).x),
                build_decorrelator(gen_sparse_instance(60, 8, 2, 1.0, 5).x, "row_program")):
        for held in (dec.vsv_diag, dec._abs_gap):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0


def test_decorrelator_built_from_a_view_is_not_written_through():
    # a NaN written into the base of the Sigma view reached r_K
    x = np.random.default_rng(15).standard_normal((40, 4))
    v, s = np.eye(4), x.T @ x / 40
    ref = Decorrelator(v.copy(), s.copy())
    dec = Decorrelator(v[:], s[:])
    v[0, 1], s[2, 2] = 5.0, np.nan
    assert dec.v.tolist() == ref.v.tolist()
    assert dec.sigma_hat.tolist() == ref.sigma_hat.tolist()
    assert dec.r_k(1) == ref.r_k(1)
    assert dec.vsv_diag.tolist() == ref.vsv_diag.tolist()


def test_sparse_instance_built_from_views_is_not_written_through():
    inst = gen_sparse_instance(30, 5, 2, 0.5, 16)
    arrays = {name: getattr(inst, name).copy() for name in
              ("x", "y", "theta_truth", "realized_noise")}
    built = SparseInstance(**{name: arr[:] for name, arr in arrays.items()})
    expected = {name: arr.tolist() for name, arr in arrays.items()}
    for arr in arrays.values():
        arr.fill(np.nan)
    for name, value in expected.items():
        held = getattr(built, name)
        assert held.tolist() == value
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0


def test_sparse_instance_arrays_are_read_only():
    x, y = np.ones((3, 2)), np.zeros(3)
    inst = SparseInstance(x=x, y=y)
    for held in (x, inst.x):
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = np.nan
    for held in (y, inst.y):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = np.nan


def test_instance_and_config_validation():
    with pytest.raises(ValueError):
        SparseInstance(x=np.ones((3, 2)), y=np.ones(4))
    with pytest.raises(ValueError):
        SparseInstance(x=np.ones((3, 2)), y=np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        SparseInstance(x=np.ones((3, 2)), y=np.ones(3), theta_truth=np.ones(5))
    with pytest.raises(ValueError):
        SparseConfig(t0=-1.0)
    with pytest.raises(ValueError):
        SparseConfig(k_cap=0)
    with pytest.raises(ValueError, match="must be an integer"):
        SparseConfig(k_cap=1.5)
    config = SparseConfig(k_cap=np.int64(5))
    assert type(config.k_cap) is int and config.k_cap == 5
    with pytest.raises(ValueError):
        build_decorrelator(np.ones((40, 4)), strategy="whitening")
