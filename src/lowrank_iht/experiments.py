"""Seeded Monte-Carlo experiment grids with CSV reports.

One runner, ``run_experiment``, serves the three pipelines (dense matrix
simulation, qubit tomography, sparse vectors). A per-mode table names the
replicate function, the cell columns and the metric columns; the runner
enumerates the grid cells, runs seeded replicates (optionally across
processes), each returning one plain row dict, and emits

    metrics.csv      one row per (cell, replicate)
    aggregate.csv    mean and 2.5% / 97.5% quantiles per (cell, metric)
    timings.csv      wall-clock per replicate
    coordinates.csv  sparse mode only: one row per (replicate, coordinate)

metrics.csv and aggregate.csv are byte-deterministic for a given config and
seed; wall clock lives in its own file so the deterministic outputs can be
diffed. Every replicate draws from a generator keyed by (master seed, mode,
cell index, replicate index), so no stream is ever shared across cells and
workers can run in any order without changing a single byte.
"""

from __future__ import annotations

import itertools
import math
import os
import time
import warnings
from dataclasses import dataclass, fields as dc_fields
from typing import Callable, NamedTuple

import numpy as np

from .iht import IhtConfig, run_iht
from .inference import confidence_intervals
from .linalg import entrywise_inf_norm, schatten_norm
from .quantum import simulate_dataset, gen_density_matrix
from .sparse import (
    SparseConfig,
    build_decorrelator,
    desparsify,
    gen_sparse_instance,
    sparse_confidence_intervals,
    sparse_iht_run,
    sparse_sigma,
)
from .trace_model import (
    gen_basis_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    simulate_observations,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "compute_metrics",
    "run_experiment",
    "reaggregate",
    "read_csv",
]

MODES = ("matrix_sim", "quantum", "sparse")
_MODE_ID = {mode: i for i, mode in enumerate(MODES)}

SCHEMA_LINE = "# schema=1"


class ConfigError(ValueError):
    """Invalid experiment configuration (bad mode, grid, or estimator knobs)."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    output_dir: str
    replicates: int = 50
    seed: int = 0
    workers: int = 1
    noise_std: float = 1.0
    level: float = 0.95
    two_sided_correct: bool = False
    design: str = "gaussian"
    d_values: tuple = ()
    k_values: tuple = ()
    n_values: tuple = ()
    m_values: tuple = ()
    alpha_values: tuple = ()
    t_factors: tuple = ()
    p_values: tuple = ()
    iht: IhtConfig = IhtConfig()
    sparse_estimator: SparseConfig = SparseConfig()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.output_dir:
            raise ConfigError("output_dir is required")
        for name in ("replicates", "workers"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) \
                or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an integer in [0, 2^64)")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError("noise_std must be nonnegative and finite")
        if not 0 < self.level < 1:
            raise ConfigError("level must lie in (0, 1)")
        if self.design not in ("gaussian", "basis"):
            raise ConfigError(f"design must be gaussian or basis, got {self.design!r}")
        for name in ("d_values", "k_values", "n_values", "m_values", "p_values"):
            if any(isinstance(v, bool) for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be integers, not booleans")
            vals = tuple(int(v) for v in getattr(self, name))
            if any(v < 1 for v in vals):
                raise ConfigError(f"{name} entries must be positive")
            object.__setattr__(self, name, vals)
        for name in ("alpha_values", "t_factors"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not all(0 < v < math.inf for v in vals):
                raise ConfigError(f"{name} entries must be positive and finite")
            object.__setattr__(self, name, vals)
        needed = {
            "matrix_sim": ("d_values", "k_values"),
            "quantum": ("m_values", "k_values", "alpha_values", "t_factors"),
            "sparse": ("p_values", "k_values", "n_values"),
        }[self.mode]
        for name in needed:
            if not getattr(self, name):
                raise ConfigError(f"{self.mode} mode requires {name}")
        if self.mode == "matrix_sim" and self.design == "gaussian" and not self.n_values:
            raise ConfigError("matrix_sim with gaussian design requires n_values")
        for cell in self.cells():
            if self.mode == "matrix_sim" and cell["k"] > cell["d"]:
                raise ConfigError(f"k={cell['k']} exceeds d={cell['d']}")
            if self.mode == "quantum":
                d = 2 ** cell["m"]
                if cell["k"] > d:
                    raise ConfigError(f"k={cell['k']} exceeds d={d} at m={cell['m']}")
                n_settings = int(round(cell["alpha"] * cell["k"] * d))
                if n_settings > 3 ** cell["m"]:
                    warnings.warn(
                        f"cell m={cell['m']} k={cell['k']} alpha={cell['alpha']} asks "
                        f"for {n_settings} settings but only {3 ** cell['m']} distinct "
                        "bases exist; settings will repeat", RuntimeWarning)
            if self.mode == "sparse" and cell["k"] > cell["p"]:
                raise ConfigError(f"k={cell['k']} exceeds p={cell['p']}")

    def cells(self) -> list[dict]:
        if self.mode == "matrix_sim":
            if self.design == "basis":
                return [{"d": d, "k": k, "n": d * d}
                        for d, k in itertools.product(self.d_values, self.k_values)]
            return [{"d": d, "k": k, "n": n} for d, k, n in
                    itertools.product(self.d_values, self.k_values, self.n_values)]
        if self.mode == "quantum":
            return [{"m": m, "k": k, "alpha": a, "t_factor": t} for m, k, a, t in
                    itertools.product(self.m_values, self.k_values,
                                      self.alpha_values, self.t_factors)]
        return [{"p": p, "k": k, "n": n} for p, k, n in
                itertools.product(self.p_values, self.k_values, self.n_values)]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in dc_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        try:
            if "iht" in kwargs:
                kwargs["iht"] = IhtConfig(**kwargs["iht"])
            if "sparse_estimator" in kwargs:
                kwargs["sparse_estimator"] = SparseConfig(**kwargs["sparse_estimator"])
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def compute_metrics(theta_hat, theta):
    """(squared Frobenius, operator, entrywise sup, nuclear) of the difference."""
    theta_hat = np.asarray(theta_hat)
    theta = np.asarray(theta)
    if theta_hat.shape != theta.shape:
        raise ValueError("shapes differ")
    diff = theta_hat - theta
    return (
        float(np.sum(np.abs(diff) ** 2)),
        schatten_norm(diff, "operator"),
        entrywise_inf_norm(diff),
        schatten_norm(diff, 1.0),
    )


def _rep_seed(config: ExperimentConfig, cell_idx: int, rep_idx: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=config.seed,
        spawn_key=(_MODE_ID[config.mode], cell_idx, rep_idx))


def _matrix_replicate(config: ExperimentConfig, cell: dict, cell_idx: int,
                      rep_idx: int) -> dict:
    theta_seed, design_seed, noise_seed = _rep_seed(config, cell_idx, rep_idx).spawn(3)
    d, k, n = cell["d"], cell["k"], cell["n"]
    start = time.perf_counter()
    theta = gen_low_rank_theta(d, k, theta_seed)
    if config.design == "basis":
        batch = gen_basis_design(d)
    else:
        batch = gen_gaussian_design(n, d, design_seed)
    obs = simulate_observations(batch, theta, config.noise_std, noise_seed)
    estimate, state = run_iht(batch, obs, config.iht)
    result = confidence_intervals(batch, obs, estimate, level=config.level,
                                  two_sided_correct=config.two_sided_correct,
                                  state=state)
    return {
        **_estimate_metrics(cell, rep_idx, estimate, theta, state, start),
        "coverage": result.coverage_rate(theta),
        "mean_ci_length": float(np.mean(2.0 * result.half_width)),
    }


def _quantum_replicate(config: ExperimentConfig, cell: dict, cell_idx: int,
                       rep_idx: int) -> dict:
    theta_seed, data_seed = _rep_seed(config, cell_idx, rep_idx).spawn(2)
    m, k = cell["m"], cell["k"]
    d = 2 ** m
    n_settings = int(round(cell["alpha"] * k * d))
    repetitions = max(1, int(round(cell["t_factor"] * d)))
    start = time.perf_counter()
    theta = gen_density_matrix(d, k, theta_seed)
    dataset = simulate_dataset(theta, n_settings, repetitions, data_seed)
    batch, obs = dataset.to_trace_regression()
    estimate, state = run_iht(batch, obs, config.iht)
    return _estimate_metrics(cell, rep_idx, estimate, theta, state, start)


def _estimate_metrics(cell, rep_idx, estimate, theta, state, start) -> dict:
    fro, op, ent, s1 = compute_metrics(estimate, theta)
    return {
        **cell,
        "replicate": rep_idx,
        "frobenius_sq": fro,
        "operator": op,
        "entrywise_inf": ent,
        "schatten1": s1,
        "rank_hat": state.rank,
        "r_hat": state.iteration,
        "runtime_ms": (time.perf_counter() - start) * 1e3,
    }


def _sparse_replicate(config: ExperimentConfig, cell: dict, cell_idx: int,
                      rep_idx: int) -> dict:
    inst_seed, = _rep_seed(config, cell_idx, rep_idx).spawn(1)
    p, k, n = cell["p"], cell["k"], cell["n"]
    start = time.perf_counter()
    instance = gen_sparse_instance(n, p, k, config.noise_std, inst_seed)
    dec = build_decorrelator(instance.x, "identity")
    theta_r, trace = sparse_iht_run(instance, dec, config.sparse_estimator)
    theta_hat = desparsify(theta_r, instance, dec)
    sigma_hat = sparse_sigma(instance, theta_r)
    intervals = sparse_confidence_intervals(theta_hat, instance, dec, sigma_hat,
                                            config.level)
    truth = instance.theta_truth
    support_true = set(np.flatnonzero(truth).tolist())
    support_hat = set(np.flatnonzero(theta_r).tolist())
    diff = theta_hat - truth
    covered = intervals.covers(truth)
    runtime_ms = (time.perf_counter() - start) * 1e3
    return {
        **cell,
        "replicate": rep_idx,
        "l2_sq": float(diff @ diff),
        "linf": float(np.max(np.abs(diff))),
        "support_size": len(support_hat),
        "support_included": int(support_hat <= support_true),
        "iterations": len(trace),
        "coverage": float(np.mean(covered)),
        "mean_ci_length": float(np.mean(2.0 * intervals.half_width)),
        "runtime_ms": runtime_ms,
        "coordinates": [
            {**cell, "replicate": rep_idx, "j": j,
             "theta_hat": float(intervals.estimate[j]),
             "ci_lower": float(intervals.lower[j]),
             "ci_upper": float(intervals.upper[j]),
             "in_support": int(j in support_true)}
            for j in range(p)
        ],
    }


class _Mode(NamedTuple):
    """How one mode fills metrics.csv: rows from ``replicate``, with the cell
    columns before ``replicate`` and the metric columns after it. A sparse
    row also carries its ``coordinates`` rows for coordinates.csv."""

    replicate: Callable[..., dict]
    cell_cols: tuple
    metric_cols: tuple


_MATRIX_METRICS = ("frobenius_sq", "operator", "entrywise_inf", "schatten1",
                   "rank_hat", "r_hat", "coverage", "mean_ci_length")

_MODE_TABLE = {
    "matrix_sim": _Mode(_matrix_replicate, ("d", "k", "n"), _MATRIX_METRICS),
    "quantum": _Mode(_quantum_replicate, ("m", "k", "alpha", "t_factor"), _MATRIX_METRICS),
    "sparse": _Mode(_sparse_replicate, ("p", "k", "n"),
                    ("l2_sq", "linf", "support_size", "support_included",
                     "iterations", "coverage", "mean_ci_length")),
}

_COORD_COLS = ("j", "theta_hat", "ci_lower", "ci_upper", "in_support")


def _task(args):
    config, cell, cell_idx, rep_idx = args
    return _MODE_TABLE[config.mode].replicate(config, cell, cell_idx, rep_idx)


def _run_all(config: ExperimentConfig) -> list[dict]:
    """All replicate rows, ordered by (cell index, replicate)."""
    tasks = [(config, cell, ci, ri)
             for ci, cell in enumerate(config.cells())
             for ri in range(config.replicates)]
    if config.workers > 1:
        # imported here: the pool machinery costs every import of the package
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(_task, tasks))
    return [_task(t) for t in tasks]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, columns, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(SCHEMA_LINE + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")


def read_csv(path):
    """(columns, rows) with values parsed back to int/float/None."""
    rows = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path} has no header")
    columns = lines[0].split(",")
    for ln in lines[1:]:
        if not ln:
            continue
        values = []
        for raw in ln.split(","):
            if raw == "":
                values.append(None)
                continue
            try:
                values.append(int(raw))
            except ValueError:
                try:
                    values.append(float(raw))
                except ValueError:
                    values.append(raw)
        rows.append(dict(zip(columns, values)))
    return columns, rows


def _write_aggregate(path, rows, cell_cols, metric_cols):
    """Long-format aggregate.csv: one row per (cell, metric) with mean and the
    2.5% / 97.5% empirical quantiles. Cells come in order of first
    appearance, each cell's values in row order."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in cell_cols), []).append(row)
    out = []
    for key, group in groups.items():
        for metric in metric_cols:
            vals = np.array([r[metric] for r in group if r.get(metric) is not None],
                            dtype=np.float64)
            if vals.size == 0:
                continue
            out.append({
                **dict(zip(cell_cols, key)),
                "metric": metric,
                "mean": float(vals.mean()),
                "q025": float(np.quantile(vals, 0.025)),
                "q975": float(np.quantile(vals, 0.975)),
            })
    _write_csv(path, [*cell_cols, "metric", "mean", "q025", "q975"], out)


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    probe = os.path.join(path, ".write_probe")
    with open(probe, "w") as fh:
        fh.write("ok\n")
    os.remove(probe)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every (cell, replicate) of the config's grid and write the CSVs;
    returns their paths keyed by file stem."""
    mode = _MODE_TABLE[config.mode]
    cell_cols = mode.cell_cols
    _ensure_outdir(config.output_dir)
    rows = _run_all(config)
    coord_rows = [c for row in rows for c in row.pop("coordinates", ())]
    paths = {name: os.path.join(config.output_dir, f"{name}.csv")
             for name in ("metrics", "aggregate", "timings")}
    _write_csv(paths["metrics"], [*cell_cols, "replicate", *mode.metric_cols], rows)
    _write_aggregate(paths["aggregate"], rows, cell_cols, mode.metric_cols)
    _write_csv(paths["timings"], [*cell_cols, "replicate", "runtime_ms"], rows)
    if coord_rows:
        paths["coordinates"] = os.path.join(config.output_dir, "coordinates.csv")
        _write_csv(paths["coordinates"], [*cell_cols, "replicate", *_COORD_COLS],
                   coord_rows)
    return paths


def reaggregate(metrics_path, out_path) -> str:
    """Rebuild aggregate.csv from a metrics.csv; pure function of its rows."""
    columns, rows = read_csv(metrics_path)
    if "replicate" not in columns:
        raise ValueError("metrics file lacks a replicate column")
    split = columns.index("replicate")
    cell_cols = columns[:split]
    metric_cols = columns[split + 1:]
    _write_aggregate(out_path, rows, cell_cols, metric_cols)
    return out_path
