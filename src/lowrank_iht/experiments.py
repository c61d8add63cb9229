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
import os
import time
import warnings
from dataclasses import dataclass, fields as dc_fields
from typing import Callable, NamedTuple

import numpy as np

from ._checks import check_array, check_float, check_int
from .iht import IhtConfig, run_iht
from .inference import confidence_intervals
from .linalg import _singular_values, entrywise_inf_norm
from .quantum import simulate_dataset, gen_density_matrix
from .sparse import (
    SparseConfig,
    build_decorrelator,
    gen_sparse_instance,
    sparse_confidence_intervals,
    sparse_iht_run,
)
from .trace_model import gen_gaussian_design, gen_low_rank_theta, simulate_observations

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "compute_metrics",
    "run_experiment",
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
            object.__setattr__(self, name, check_int(getattr(self, name), name,
                                                     error=ConfigError))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0, 2 ** 64,
                                                   ConfigError))
        object.__setattr__(self, "noise_std", check_float(self.noise_std, "noise_std",
                                                          error=ConfigError))
        object.__setattr__(self, "level", check_float(self.level, "level", 0.0, 1.0,
                                                      ConfigError, strict=True))
        for name in ("d_values", "k_values", "n_values", "m_values", "p_values"):
            vals = tuple(check_int(v, f"{name} entries", error=ConfigError)
                         for v in getattr(self, name))
            object.__setattr__(self, name, vals)
        for name in ("alpha_values", "t_factors"):
            vals = tuple(check_float(v, f"{name} entries", error=ConfigError, strict=True)
                         for v in getattr(self, name))
            object.__setattr__(self, name, vals)
        reads, reader = _MODE_TABLE[self.mode].reads, f"{self.mode} mode"
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name in reads:
                if f.default == () and not value:
                    raise ConfigError(f"{reader} requires {f.name}")
            elif value != f.default and any(f.name in m.reads for m in _MODE_TABLE.values()):
                raise ConfigError(f"{reader} does not read {f.name}; leave it unset")
        if self.mode == "sparse" and min(self.n_values) < 2:
            raise ConfigError(f"sparse mode needs every n >= 2, got {min(self.n_values)}")
        k_cap = self.sparse_estimator.k_cap
        if self.mode == "sparse" and k_cap is not None and k_cap > min(self.p_values):
            raise ConfigError(f"sparse_estimator.k_cap={k_cap} exceeds the "
                              f"smallest p={min(self.p_values)}")
        for cell in self.cells():
            if self.mode == "matrix_sim" and cell["k"] > cell["d"]:
                raise ConfigError(f"k={cell['k']} exceeds d={cell['d']}")
            if self.mode == "quantum":
                d, n_settings = _tomography_size(cell)
                if cell["k"] > d:
                    raise ConfigError(f"k={cell['k']} exceeds d={d} at m={cell['m']}")
                asks = (f"cell m={cell['m']} k={cell['k']} alpha={cell['alpha']} asks "
                        f"for {n_settings} settings")
                if n_settings < 1:
                    raise ConfigError(f"{asks}; alpha * k * 2^m must round to at least 1")
                if n_settings > 3 ** cell["m"]:
                    warnings.warn(
                        f"{asks} but only {3 ** cell['m']} distinct bases exist; "
                        "settings will repeat", RuntimeWarning)
            if self.mode == "sparse" and cell["k"] > cell["p"]:
                raise ConfigError(f"k={cell['k']} exceeds p={cell['p']}")

    def cells(self) -> list[dict]:
        """Every combination of the mode's grid values, the last grid
        varying fastest, as dicts keyed by the cell columns."""
        mode = _MODE_TABLE[self.mode]
        values = (getattr(self, field) for _, field in mode.grid)
        return [dict(zip(mode.cell_cols, combo)) for combo in itertools.product(*values)]

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
    theta_hat = check_array(theta_hat, "theta_hat", (None, None), dtype=None)
    theta = check_array(theta, "theta", theta_hat.shape, dtype=None)
    diff = theta_hat - theta
    # one singular-value computation serves both Schatten norms, with the bits
    # of tests/_oracles.py's schatten_norm(diff, "operator") and (diff, 1.0)
    s = _singular_values(diff)
    return (
        float(np.sum(np.abs(diff) ** 2)),
        float(s[0]),
        entrywise_inf_norm(diff),
        float(np.sum(s)),
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
    batch = gen_gaussian_design(n, d, design_seed)
    obs = simulate_observations(batch, theta, config.noise_std, noise_seed)
    estimate, state = run_iht(batch, obs, config.iht)
    result = confidence_intervals(batch, obs, estimate, level=config.level, state=state)
    return {
        **_estimate_metrics(cell, rep_idx, estimate, theta, state, start),
        "coverage": result.coverage_rate(theta),
        "mean_ci_length": float(np.mean(2.0 * result.half_width)),
    }


def _tomography_size(cell: dict) -> tuple[int, int]:
    """(d, n_settings) of a quantum cell: d = 2^m and alpha * k * d rounded."""
    d = 2 ** cell["m"]
    return d, int(round(cell["alpha"] * cell["k"] * d))


def _quantum_replicate(config: ExperimentConfig, cell: dict, cell_idx: int,
                       rep_idx: int) -> dict:
    theta_seed, data_seed = _rep_seed(config, cell_idx, rep_idx).spawn(2)
    d, n_settings = _tomography_size(cell)
    repetitions = max(1, int(round(cell["t_factor"] * d)))
    start = time.perf_counter()
    theta = gen_density_matrix(d, cell["k"], theta_seed)
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
    dec = build_decorrelator(instance.x)
    theta_r, thresholds = sparse_iht_run(instance, dec, config.sparse_estimator)
    intervals = sparse_confidence_intervals(theta_r, instance, dec, level=config.level)
    truth = instance.theta_truth
    support_true = set(np.flatnonzero(truth).tolist())
    support_hat = set(np.flatnonzero(theta_r).tolist())
    diff = intervals.estimate - truth
    covered = intervals.covers(truth)
    runtime_ms = (time.perf_counter() - start) * 1e3
    return {
        **cell,
        "replicate": rep_idx,
        "l2_sq": float(diff @ diff),
        "linf": float(np.max(np.abs(diff))),
        "support_size": len(support_hat),
        "support_included": int(support_hat <= support_true),
        "iterations": len(thresholds),
        "coverage": float(np.mean(covered)),
        "mean_ci_length": float(np.mean(2.0 * intervals.half_width)),
        "runtime_ms": runtime_ms,
        "coordinates": (intervals.estimate, intervals.lower, intervals.upper, truth != 0),
    }


class _Mode(NamedTuple):
    """How one mode fills metrics.csv: rows from ``replicate``, with the cell
    columns before ``replicate`` and the metric columns after it. A sparse
    row also carries its ``coordinates`` for coordinates.csv: the arrays
    theta_hat, ci_lower, ci_upper and in_support, indexed by j.

    ``grid`` pairs each cell column with the config field whose values it
    ranges over. ``reads`` names those fields and the others the mode reads
    besides those every mode reads; each grid must be nonempty, and a field
    that another mode reads must keep its default."""

    replicate: Callable[..., dict]
    grid: tuple
    metric_cols: tuple
    other_reads: tuple

    @property
    def cell_cols(self) -> tuple:
        return tuple(col for col, _ in self.grid)

    @property
    def reads(self) -> tuple:
        return (*(field for _, field in self.grid), *self.other_reads)


_MATRIX_METRICS = ("frobenius_sq", "operator", "entrywise_inf", "schatten1",
                   "rank_hat", "r_hat", "coverage", "mean_ci_length")

_MODE_TABLE = {
    "matrix_sim": _Mode(_matrix_replicate,
                        (("d", "d_values"), ("k", "k_values"), ("n", "n_values")),
                        _MATRIX_METRICS, ("noise_std", "level", "iht")),
    "quantum": _Mode(_quantum_replicate,
                     (("m", "m_values"), ("k", "k_values"), ("alpha", "alpha_values"),
                      ("t_factor", "t_factors")),
                     _MATRIX_METRICS, ("iht",)),
    "sparse": _Mode(_sparse_replicate,
                    (("p", "p_values"), ("k", "k_values"), ("n", "n_values")),
                    ("l2_sq", "linf", "support_size", "support_included",
                     "iterations", "coverage", "mean_ci_length"),
                    ("noise_std", "level", "sparse_estimator")),
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
    workers = min(config.workers, len(tasks))  # a pool starts all its workers at once
    if workers > 1:
        # imported here: the pool machinery costs every import of the package
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_task, tasks))
    return [_task(t) for t in tasks]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, columns, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(SCHEMA_LINE + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")


def _write_coordinates(path, key_cols, rows):
    """coordinates.csv: one line per (row, j), laid out as _write_csv lays
    out dicts of the row's key columns, j and its ``coordinates`` arrays."""
    with open(path, "w", newline="\n") as fh:
        fh.write(SCHEMA_LINE + "\n")
        fh.write(",".join([*key_cols, *_COORD_COLS]) + "\n")
        for row in rows:
            key = ",".join(_fmt(row[col]) for col in key_cols)
            estimate, lower, upper, in_support = (a.tolist() for a in row["coordinates"])
            fh.writelines(f"{key},{j},{est!r},{lo!r},{hi!r},{int(inside)}\n"
                          for j, (est, lo, hi, inside)
                          in enumerate(zip(estimate, lower, upper, in_support)))


def read_csv(path):
    """(columns, rows) with values parsed back to int/float/None."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise ValueError(f"{path} has no header")
    columns = lines[0].split(",")
    for ln in lines[1:]:
        if not ln:
            continue
        if ln.count(",") != len(columns) - 1:
            raise ValueError(f"{path} has the row {ln!r}, which does not have "
                             f"the header's {len(columns)} fields")
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
    paths = {name: os.path.join(config.output_dir, f"{name}.csv")
             for name in ("metrics", "aggregate", "timings")}
    _write_csv(paths["metrics"], [*cell_cols, "replicate", *mode.metric_cols], rows)
    _write_aggregate(paths["aggregate"], rows, cell_cols, mode.metric_cols)
    _write_csv(paths["timings"], [*cell_cols, "replicate", "runtime_ms"], rows)
    if rows and "coordinates" in rows[0]:
        paths["coordinates"] = os.path.join(config.output_dir, "coordinates.csv")
        _write_coordinates(paths["coordinates"], [*cell_cols, "replicate"], rows)
    return paths


def reaggregate(metrics_path, out_path) -> str:
    """Rebuild aggregate.csv from a metrics.csv; pure function of its rows."""
    columns, rows = read_csv(metrics_path)
    if "replicate" not in columns:
        raise ValueError(f"{metrics_path} lacks a replicate column")
    split = columns.index("replicate")
    cell_cols, metric_cols = columns[:split], columns[split + 1:]
    for value in (row[col] for row in rows for col in metric_cols):
        if isinstance(value, str):
            raise ValueError(f"{metrics_path} has the metric value {value!r}, not a number")
    _write_aggregate(out_path, rows, cell_cols, metric_cols)
    return out_path
