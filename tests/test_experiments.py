import functools

import numpy as np
import pytest

from lowrank_iht import _rng, experiments
from lowrank_iht.cli import _DEFAULT_GRIDS
from lowrank_iht.experiments import (
    ConfigError,
    ExperimentConfig,
    compute_metrics,
    read_csv,
    reaggregate,
    run_experiment,
)
from lowrank_iht.experiments import _rep_seed
from lowrank_iht.sparse import (
    build_decorrelator,
    gen_sparse_instance,
    sparse_confidence_intervals,
    sparse_iht_run,
)

from _oracles import schatten_norm


def test_compute_metrics_hand_example():
    theta_hat = np.array([[3.0, 4.0], [0.0, 0.0]])
    theta = np.zeros((2, 2))
    fro_sq, op, ent, s1 = compute_metrics(theta_hat, theta)
    # rank-one difference: operator and nuclear norms coincide at 5
    assert fro_sq == pytest.approx(25.0, rel=1e-12)
    assert op == pytest.approx(5.0, rel=1e-12)
    assert ent == pytest.approx(4.0, rel=1e-12)
    assert s1 == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((2, 2)), np.zeros((3, 3)))
    # the input checks apply to both matrices
    with pytest.raises(ValueError, match="finite"):
        compute_metrics(np.full((2, 2), np.nan), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"theta_hat must have shape \(\*, \*\)"):
        compute_metrics(np.zeros(3), np.zeros(3))


def test_compute_metrics_against_numpy_oracles():
    rng = np.random.default_rng(3)
    for trial in range(8):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        if trial % 2:
            a, b = a.real, b.real
        fro_sq, op, ent, s1 = compute_metrics(a, b)
        diff = a - b
        # one singular-value computation gives both Schatten norms' bits
        assert op == schatten_norm(diff, "operator")
        assert s1 == schatten_norm(diff, 1.0)
        svals = np.linalg.svd(diff, compute_uv=False)
        assert fro_sq == pytest.approx(float(np.sum(np.abs(diff) ** 2)), rel=1e-10)
        assert op == pytest.approx(float(svals[0]), rel=1e-10)
        assert ent == pytest.approx(float(np.max(np.abs(diff))), rel=1e-10)
        assert s1 == pytest.approx(float(svals.sum()), rel=1e-10)


def _matrix_config(out, **overrides):
    base = dict(mode="matrix_sim", output_dir=str(out), replicates=2, seed=7,
                d_values=(6,), k_values=(1,), n_values=(40,))
    base.update(overrides)
    return ExperimentConfig(**base)


def _quantum_config(out, **overrides):
    base = dict(mode="quantum", output_dir=str(out), replicates=2, seed=3,
                m_values=(2,), k_values=(1,), alpha_values=(2.0,), t_factors=(3.0,))
    base.update(overrides)
    return ExperimentConfig(**base)


def _sparse_config(out, **overrides):
    base = dict(mode="sparse", output_dir=str(out), replicates=2, seed=5,
                p_values=(30,), k_values=(2,), n_values=(200,))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="bogus", output_dir="x", d_values=(4,),
                         k_values=(1,), n_values=(10,))
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="matrix_sim", output_dir="", d_values=(4,),
                         k_values=(1,), n_values=(10,))
    with pytest.raises(ConfigError):
        _matrix_config("x", replicates=0)
    with pytest.raises(ConfigError):
        _matrix_config("x", seed=-1)
    with pytest.raises(ConfigError):
        _matrix_config("x", noise_std=-1.0)
    with pytest.raises(ConfigError):
        _matrix_config("x", level=1.5)
    with pytest.raises(ConfigError):
        _matrix_config("x", n_values=())
    with pytest.raises(ConfigError):
        _matrix_config("x", k_values=(9,))  # exceeds d=6
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="sparse", output_dir="x", p_values=(5,),
                         k_values=(9,), n_values=(10,))
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="quantum", output_dir="x", m_values=(2,),
                         k_values=(1,), alpha_values=(), t_factors=(2,))


def test_from_dict_nested_and_unknown_keys():
    config = ExperimentConfig.from_dict({
        "mode": "matrix_sim", "output_dir": "out", "replicates": 3,
        "d_values": [8], "k_values": [2], "n_values": [100],
        "iht": {"upsilon": 0.01, "t0": 2.0},
    })
    assert config.iht.upsilon == 0.01
    assert config.iht.t0 == 2.0
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"mode": "matrix_sim", "output_dir": "o",
                                    "d_values": [4], "k_values": [1],
                                    "n_values": [10], "granularity": 3})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"mode": "matrix_sim", "output_dir": "o",
                                    "d_values": [4], "k_values": [1],
                                    "n_values": [10], "iht": {"upsilon": -1.0}})
    # rho = 1/2 and the iteration cap are constants: naming either is an
    # unknown argument, whatever its value
    for block in ({"rho": 0.5}, {"max_iters": 50}):
        with pytest.raises(ConfigError, match=f"'{next(iter(block))}'"):
            ExperimentConfig.from_dict({"mode": "matrix_sim", "output_dir": "o",
                                        "d_values": [4], "k_values": [1],
                                        "n_values": [10], "iht": block})


def test_iht_delta_is_an_unknown_argument():
    with pytest.raises(ConfigError, match="delta"):
        ExperimentConfig.from_dict({"mode": "matrix_sim", "output_dir": "o",
                                    "d_values": [4], "k_values": [1],
                                    "n_values": [10], "iht": {"delta": 0.05}})


def test_quantum_setting_overdemand_warns():
    with pytest.warns(RuntimeWarning, match="distinct"):
        ExperimentConfig(mode="quantum", output_dir="o", m_values=(1,),
                         k_values=(1,), alpha_values=(4.0,), t_factors=(2.0,))


def test_rep_seeds_are_distinct_streams():
    config = _matrix_config("o")
    draws = set()
    for cell_idx in range(3):
        for rep_idx in range(3):
            rng = np.random.default_rng(_rep_seed(config, cell_idx, rep_idx))
            draws.add(float(rng.random()))
    assert len(draws) == 9


def test_run_twice_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(_matrix_config(out_a))
    run_experiment(_matrix_config(out_b))
    for name in ("metrics.csv", "aggregate.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # timings are wall-clock and live apart precisely so the above can hold
    assert (out_a / "timings.csv").exists()


def test_workers_do_not_change_outputs(tmp_path):
    # d=32, n=1100 draws 1,126,400 normals per design: above the size at
    # which the design is drawn in parts on threads, here inside each pool
    # worker
    assert 1100 * 32 * 32 >= _rng._SPLIT_MIN
    split = functools.partial(_matrix_config, d_values=(32,), n_values=(1100,))
    for name, make, files in (
            ("small", _matrix_config, ()),
            ("split", split, ()),
            ("quantum", _quantum_config, ()),
            ("sparse", _sparse_config, ("coordinates.csv",))):
        out_serial = tmp_path / name / "serial"
        out_pool = tmp_path / name / "pool"
        run_experiment(make(out_serial, workers=1))
        run_experiment(make(out_pool, workers=2))
        for file in ("metrics.csv", "aggregate.csv", *files):
            assert (out_serial / file).read_bytes() == (out_pool / file).read_bytes()


def test_a_pool_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # a process pool starts all max_workers processes at its first submit, so
    # 500 workers on two tasks would start 500; this stand-in records the
    # count and maps in-process, so the test starts no process
    import concurrent.futures
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    run_experiment(_matrix_config(tmp_path / "two", workers=500))
    assert started == [2]
    # one task runs in this process, without a pool
    run_experiment(_matrix_config(tmp_path / "one", workers=500, replicates=1))
    assert started == [2]
    run_experiment(_matrix_config(tmp_path / "serial"))
    for name in ("metrics.csv", "aggregate.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_schema_line_and_parsed_types(tmp_path):
    config = _matrix_config(tmp_path)
    paths = run_experiment(config)
    with open(paths["metrics"]) as fh:
        first = fh.readline().rstrip("\n")
    assert first == "# schema=1"
    columns, rows = read_csv(paths["metrics"])
    assert columns[:4] == ["d", "k", "n", "replicate"]
    assert len(rows) == 2
    row = rows[0]
    assert isinstance(row["d"], int) and row["d"] == 6
    assert isinstance(row["frobenius_sq"], float)
    assert isinstance(row["rank_hat"], int)
    assert 0.0 <= row["coverage"] <= 1.0


def test_quantum_rows_leave_coverage_empty(tmp_path):
    config = _quantum_config(tmp_path, replicates=1)
    paths = run_experiment(config)
    columns, rows = read_csv(paths["metrics"])
    assert rows[0]["coverage"] is None
    assert rows[0]["mean_ci_length"] is None
    assert rows[0]["frobenius_sq"] >= 0.0
    assert isinstance(rows[0]["alpha"], float)


def test_noiseless_run_is_exact(tmp_path):
    config = ExperimentConfig.from_dict({
        "mode": "matrix_sim", "output_dir": str(tmp_path), "replicates": 3,
        "seed": 11, "noise_std": 0.0,
        "d_values": [6], "k_values": [1], "n_values": [200],
        "iht": {"upsilon": 1e-9, "t0": 10.0},
    })
    paths = run_experiment(config)
    _, rows = read_csv(paths["metrics"])
    assert len(rows) == 3
    for row in rows:
        assert row["frobenius_sq"] < 1e-16
        assert row["rank_hat"] == 1


def test_sparse_experiment_outputs(tmp_path):
    config = _sparse_config(tmp_path)
    paths = run_experiment(config)
    columns, rows = read_csv(paths["metrics"])
    assert columns[:4] == ["p", "k", "n", "replicate"]
    assert len(rows) == 2
    for row in rows:
        assert row["support_included"] in (0, 1)
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["l2_sq"] >= 0.0
    columns, coords = read_csv(paths["coordinates"])
    assert columns == ["p", "k", "n", "replicate", "j", "theta_hat", "ci_lower",
                       "ci_upper", "in_support"]
    assert len(coords) == 2 * 30
    assert sum(c["in_support"] for c in coords) == 2 * 2
    for c in coords[:5]:
        assert c["ci_lower"] <= c["theta_hat"] <= c["ci_upper"]
    # replicate 1's rows are its intervals, written exactly, in coordinate order
    inst = gen_sparse_instance(200, 30, 2, config.noise_std,
                               _rep_seed(config, 0, 1).spawn(1)[0])
    dec = build_decorrelator(inst.x)
    theta_r, _ = sparse_iht_run(inst, dec, config.sparse_estimator)
    res = sparse_confidence_intervals(theta_r, inst, dec, level=config.level)
    rep1 = [c for c in coords if c["replicate"] == 1]
    assert [c["j"] for c in rep1] == list(range(30))
    assert [c["theta_hat"] for c in rep1] == res.estimate.tolist()
    assert [c["ci_lower"] for c in rep1] == res.lower.tolist()
    assert [c["ci_upper"] for c in rep1] == res.upper.tolist()
    assert [c["in_support"] for c in rep1] == (inst.theta_truth != 0).astype(int).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coordinates_csv_has_the_bytes_of_one_dict_per_coordinate(tmp_path, seed):
    # the default sparse grid at CLI seed 0..2, written from the interval
    # arrays and, as a reference, from one dict per coordinate through the
    # metrics writer
    config = ExperimentConfig(mode="sparse", output_dir=str(tmp_path), seed=seed,
                              **_DEFAULT_GRIDS["sparse"])
    rows = experiments._run_all(config)
    keys = ["p", "k", "n", "replicate"]
    dicts = [{**{key: row[key] for key in keys}, "j": j, "theta_hat": float(est[j]),
              "ci_lower": float(lower[j]), "ci_upper": float(upper[j]),
              "in_support": int(inside[j])}
             for row in rows for est, lower, upper, inside in [row["coordinates"]]
             for j in range(row["p"])]
    experiments._write_coordinates(tmp_path / "arrays.csv", keys, rows)
    experiments._write_csv(tmp_path / "dicts.csv", keys + list(experiments._COORD_COLS),
                           dicts)
    written = (tmp_path / "arrays.csv").read_bytes()
    assert written == (tmp_path / "dicts.csv").read_bytes()
    assert written.count(b"\n") == 2 + 10 * 100


def test_reaggregate_reproduces_aggregate(tmp_path):
    config = _matrix_config(tmp_path / "run", replicates=3)
    paths = run_experiment(config)
    rebuilt = tmp_path / "rebuilt.csv"
    reaggregate(paths["metrics"], rebuilt)
    assert rebuilt.read_bytes() == (tmp_path / "run" / "aggregate.csv").read_bytes()


def test_reaggregate_quantile_oracle(tmp_path):
    # hand-written metrics: one cell, foo = 1..8, so mean 4.5 and the
    # interpolated 2.5% / 97.5% quantiles are 1.175 and 7.825
    src = tmp_path / "metrics.csv"
    lines = ["# schema=1", "d,k,n,replicate,foo"]
    lines += [f"2,1,10,{i},{float(v)!r}" for i, v in enumerate(range(1, 9))]
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "agg.csv"
    reaggregate(src, out)
    _, rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["metric"] == "foo"
    assert row["mean"] == pytest.approx(4.5, rel=1e-12)
    assert row["q025"] == pytest.approx(1.175, rel=1e-12)
    assert row["q975"] == pytest.approx(7.825, rel=1e-12)
    bad = tmp_path / "noreps.csv"
    bad.write_text("d,k\n1,2\n")
    with pytest.raises(ValueError):
        reaggregate(bad, out)


def test_reaggregate_interleaved_cells(tmp_path):
    # cells A (d=3) and B (d=2) alternate row by row; cells come out in order
    # of first appearance, and each cell's values are reduced in file order:
    # B's foo sums to 1 only as ((1e16 - 1e16) + 1), while sorted or reversed
    # order loses the 1 to rounding against 1e16
    src = tmp_path / "metrics.csv"
    src.write_text("# schema=1\nd,replicate,foo,bar\n"
                   "3,0,1.0,\n2,0,1e16,5\n3,1,2.0,\n2,1,-1e16,7\n"
                   "3,2,4.0,\n2,2,1.0,6\n")
    out = tmp_path / "agg.csv"
    reaggregate(src, out)
    columns, rows = read_csv(out)
    assert columns == ["d", "metric", "mean", "q025", "q975"]
    assert [(r["d"], r["metric"]) for r in rows] == [(3, "foo"), (2, "foo"), (2, "bar")]
    a_foo, b_foo, b_bar = rows
    assert a_foo["mean"] == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert a_foo["q025"] == pytest.approx(1.05, rel=1e-12)
    assert a_foo["q975"] == pytest.approx(3.9, rel=1e-12)
    assert b_foo["mean"] == 1.0 / 3.0
    assert b_bar["mean"] == pytest.approx(6.0, rel=1e-12)
    assert b_bar["q025"] == pytest.approx(5.05, rel=1e-12)
    assert b_bar["q975"] == pytest.approx(6.95, rel=1e-12)


def test_runner_mode_mismatch(tmp_path):
    # the one runner follows the config's mode: a sparse config gets the
    # sparse columns and coordinates, a matrix config neither
    sparse_config = ExperimentConfig(mode="sparse", output_dir=str(tmp_path / "s"),
                                     replicates=1, p_values=(10,), k_values=(1,),
                                     n_values=(200,))
    paths = run_experiment(sparse_config)
    columns, _ = read_csv(paths["metrics"])
    assert columns == ["p", "k", "n", "replicate", "l2_sq", "linf", "support_size",
                       "support_included", "iterations", "coverage", "mean_ci_length"]
    assert sorted(paths) == ["aggregate", "coordinates", "metrics", "timings"]
    paths = run_experiment(_matrix_config(tmp_path / "m", replicates=1))
    columns, _ = read_csv(paths["metrics"])
    assert "l2_sq" not in columns and "frobenius_sq" in columns
    assert sorted(paths) == ["aggregate", "metrics", "timings"]
    assert not (tmp_path / "m" / "coordinates.csv").exists()
