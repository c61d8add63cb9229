"""Metric definitions, the traced functions, and the per-layer arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json declares; a
test keeps the two in step.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from tracing import has_ancestor, layer_totals, self_times, target

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. On the
# 2-vCPU VM the benchmark was built on, even a fixed pure-Python loop swings
# by about +-20% over tens of seconds (30 s windows: IQR/median 0.18), so the
# timings get the widest bound allowed; peak RSS moves only with allocation.
# peak_rss_mb is taken after set-up and the warm-up op: about 0.6% of
# cli_grids ops meet a sparse cell whose 2 r_K is so near 1 that it runs
# 10^5 to 10^6 iterations and keeps one trace record for each, which lifts
# the whole-run peak by 15 to 200 MiB in some runs and not in others.
# ops_per_s is printed but not declared: with one closed-loop client it is
# the reciprocal of the mean op time, and rare long cli_grids ops (a sparse
# grid cell that runs ~10 s) move it by 30% in a run.
END_TO_END = (
    ("op_s_p50", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)


def _design_bytes(args, result):
    return {"design_bytes": int(getattr(getattr(args[0], "matrices", None), "nbytes", 0))}


def _iht_run(args, result):
    state = result[1]
    return {"iterations": int(state.iteration), "converged": int(bool(state.converged)),
            "runs": 1}


def _dataset(args, result):
    """Rows, and distinct Pauli words among them (a word is a setting with
    identities on a subset of qubits, subset bit i <-> qubit i+1)."""
    qubits = np.array([s.qubits for s in args[0]])
    m = qubits.shape[1]
    masks = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
    words = np.where(masks[None, :, :] == 1, 0, qubits[:, None, :])
    codes = words @ (4 ** np.arange(m))
    return {"rows": int(result.n), "words": int(np.unique(codes).size)}


def _sparse_run(args, result):
    return {"iterations": len(result[1])}


def _csv_bytes(args, result):
    # timings.csv holds wall clock, so only the deterministic files count
    return {"csv_bytes": sum(os.path.getsize(path) for key, path in result.items()
                             if key != "timings")}


TARGETS = (
    target("trace_model.gen_gaussian_design"),
    target("trace_model.apply_design", _design_bytes),
    target("trace_model.adjoint_apply", _design_bytes),
    target("trace_model.simulate_observations"),
    target("linalg.svd"),
    target("iht.run_iht", _iht_run),
    target("iht.iht_step"),
    target("inference.confidence_intervals"),
    target("inference.entry_scale_matrix"),
    target("inference.debias"),
    target("quantum.simulate_dataset"),
    target("quantum.sample_outcomes"),
    target("quantum.build_rescaled_dataset", _dataset),
    target("quantum.TomographyDataset.to_trace_regression",
           name="quantum.to_trace_regression"),
    target("sparse.gen_sparse_instance"),
    target("sparse.build_decorrelator"),
    target("sparse.sparse_iht_run", _sparse_run),
    target("sparse.desparsify"),
    target("sparse.sparse_confidence_intervals"),
    target("experiments.run_experiment", _csv_bytes),
    target("experiments.compute_metrics"),
    target("cli.main"),
)

_CALLS = ("trace_model.apply_design", "trace_model.adjoint_apply", "linalg.svd",
          "quantum.sample_outcomes")

# (name, unit, better); every traced function's self time, then counts.
PER_LAYER = (
    *((f"{t.name}.self_s", "s", "lower") for t in TARGETS),
    *((f"{name}.calls", "count", "lower") for name in _CALLS),
    ("trace_model.design_mb", "MB", "lower"),
    ("trace_model.design_gb_per_s_computed", "GB/s", "higher"),
    ("iht.iterations", "count", "lower"),
    ("iht.apply_per_iteration", "ratio", "lower"),
    ("iht.converged_share", "ratio", "higher"),
    ("inference.coverage", "ratio", "higher"),
    ("quantum.rows", "count", "lower"),
    ("quantum.word_reuse", "rows/word", "higher"),
    ("sparse.iterations", "count", "lower"),
    ("experiments.csv_bytes", "B", "lower"),
    ("op.unwrapped_self_s", "s", "lower"),
    ("trace.untraced_op_s_p50", "s", "lower"),
    ("trace.traced_op_s_p50", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent_layers", "count", "lower"),
    ("blas1.op_s_p50", "s", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(spans, traced, count_ops, absent, coverage, untraced_p50, blas1_p50) -> dict:
    """Per-layer metrics of one traced run.

    ``traced`` maps each traced op index to its wall time. Self times are
    per-op means over all traced ops; counts are per-op means over
    ``count_ops``, a fixed-size prefix, so they repeat exactly for a seed.
    """
    times = layer_totals(spans, traced)
    counts = layer_totals(spans, count_ops)
    out = {name: times.get(name, 0.0) for name, unit, _ in PER_LAYER if name.endswith(".self_s")}
    for name in _CALLS:
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)

    pass_names = ("trace_model.apply_design", "trace_model.adjoint_apply")
    selfs = self_times(spans)
    count_set = set(count_ops)
    design_bytes = [s.counts.get("design_bytes", 0) for s in spans
                    if s.op in count_set and s.name == "trace_model.apply_design"]
    out["trace_model.design_mb"] = max(design_bytes, default=0) / 1e6
    streamed = sum(s.counts.get("design_bytes", 0) for s in spans
                   if s.op in traced and s.name in pass_names)
    busy = sum(st for s, st in zip(spans, selfs) if s.op in traced and s.name in pass_names)
    out["trace_model.design_gb_per_s_computed"] = _ratio(streamed, busy) / 1e9

    iterations = counts.get("iht.run_iht.iterations", 0)
    applies_in_iht = sum(1 for i, s in enumerate(spans)
                         if s.op in count_set and s.name == "trace_model.apply_design"
                         and has_ancestor(spans, i, "iht.run_iht"))
    out["iht.iterations"] = iterations
    out["iht.apply_per_iteration"] = _ratio(applies_in_iht / len(count_set), iterations)
    out["iht.converged_share"] = _ratio(counts.get("iht.run_iht.converged", 0),
                                        counts.get("iht.run_iht.runs", 0))
    out["quantum.rows"] = counts.get("quantum.build_rescaled_dataset.rows", 0)
    out["quantum.word_reuse"] = _ratio(out["quantum.rows"],
                                       counts.get("quantum.build_rescaled_dataset.words", 0))
    out["inference.coverage"] = coverage
    out["sparse.iterations"] = counts.get("sparse.sparse_iht_run.iterations", 0)
    out["experiments.csv_bytes"] = counts.get("experiments.run_experiment.csv_bytes", 0)

    top = {}
    for s in spans:
        if s.parent is None and s.op in traced:
            top[s.op] = top.get(s.op, 0.0) + s.duration
    out["op.unwrapped_self_s"] = statistics.fmean(
        traced[op] - top.get(op, 0.0) for op in traced)
    traced_p50 = statistics.median(traced.values())
    out["trace.untraced_op_s_p50"] = untraced_p50
    out["trace.traced_op_s_p50"] = traced_p50
    out["trace.overhead_s"] = traced_p50 - untraced_p50
    out["trace.absent_layers"] = len(absent)
    out["blas1.op_s_p50"] = blas1_p50
    return out
