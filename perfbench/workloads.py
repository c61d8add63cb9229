"""The benchmark's workloads: one op each, plus the checks on its outputs.

Every op calls the package through module attributes looked up at call time
(``trace_model.gen_gaussian_design`` rather than an imported name), so the
wrappers of a traced run see the benchmark's own calls too. Op ``i`` of a run
with workload seed ``s`` draws from ``SeedSequence(s, spawn_key=(i,))``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lowrank_iht import cli, iht, inference, quantum, trace_model

# Largest relative Frobenius error an op may report, fixed from the package
# as first benchmarked. gaussian_d64: median 0.0029, max 0.0043 over about
# 1,100 ops. pauli_m5: median 0.13, p99 0.19, max 0.22 over about 1,100 ops,
# except for two ops whose estimate ended at rank 13 (0.42) and rank 32
# (2.14). In those two, the residual grew in the last iterations, and the
# data-driven stopping rule still reported convergence. That is an estimator
# defect, and the bound is meant to count it as a failed op.
GAUSSIAN_REL_ERR_MAX = 0.01
PAULI_REL_ERR_MAX = 0.35
HERMITIAN_TOL = 1e-10

CLI_COMMANDS = ("simulate-matrix", "simulate-quantum", "simulate-sparse")
# sha256 of the default grids' deterministic CSVs at CLI seed 0.
CLI_SEED0_SHA256 = {
    "simulate-matrix/metrics.csv":
        "d551b848137962f26cfef2557b9ca902d85fb154545ae67f463a4db85c98f060",
    "simulate-matrix/aggregate.csv":
        "6266bff273d8eef8bdcfa387d486def2181f0db9ca255267012e71e8bcea23fa",
    "simulate-quantum/metrics.csv":
        "bd00e013c489b2f9b0278ce1c3de48ede4f9bf9b335f4dae3e1385d22996599e",
    "simulate-quantum/aggregate.csv":
        "1f754c21972db6bf5428b27450fdda9777b4d81d64262015b11800f6caf63bfc",
    "simulate-sparse/metrics.csv":
        "8867e9d7481ebaa428aca62d2a171a63d3158cfd54f72c5baa758f8588290fef",
    "simulate-sparse/aggregate.csv":
        "3f29757a94ca9356d3bf47e76230f92d1904cd98b77742da4c8f764be25555ad",
}
# The m=3 quantum grid asks for more settings than there are bases.
EXPECTED_WARNING = "settings will repeat"


def op_seed(workload_seed: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=workload_seed, spawn_key=(index,))


def rel_err(estimate, theta) -> float:
    return float(np.linalg.norm(estimate - theta) / np.linalg.norm(theta))


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    """``op(seed_seq, index, workdir) -> out`` is the timed part;
    ``check(out, first) -> list of failure messages``, ``digest(out)`` and
    ``observe(out) -> dict`` run untimed after it."""

    name: str
    why: str
    op: Callable
    check: Callable
    digest: Callable
    observe: Callable


# --- gaussian_d64 ----------------------------------------------------------

GAUSSIAN_SIZE = {"n": 4000, "d": 64, "k": 3}


def gaussian_op(seq, index, workdir, size=GAUSSIAN_SIZE):
    theta_seed, design_seed, noise_seed = seq.spawn(3)
    theta = trace_model.gen_low_rank_theta(size["d"], size["k"], theta_seed)
    batch = trace_model.gen_gaussian_design(size["n"], size["d"], design_seed)
    obs = trace_model.simulate_observations(batch, theta, 1.0, noise_seed)
    estimate, state = iht.run_iht(batch, obs)
    ci = inference.confidence_intervals(batch, obs, estimate, state=state)
    return {"theta": theta, "batch": batch, "obs": obs, "estimate": estimate,
            "state": state, "ci": ci}


def gaussian_check(out, first, rel_err_max=GAUSSIAN_REL_ERR_MAX):
    failures = []
    if not out["state"].converged:
        failures.append(f"run did not converge in {out['state'].iteration} iterations")
    err = rel_err(out["estimate"], out["theta"])
    if not err < rel_err_max:
        failures.append(f"rel_err {err:.4g} not under {rel_err_max}")
    if first:
        remainder, noise_term, total = inference.decomposition_terms(
            out["batch"], out["obs"], out["estimate"], out["theta"], out["obs"].noise)
        gap = float(np.max(np.abs(remainder + noise_term - total)))
        scale = max(1.0, float(np.max(np.abs(total))))
        if not gap <= 1e-9 * scale:
            failures.append(f"decomposition identity off by {gap:.3e}")
    return failures


def gaussian_digest(out):
    ci = out["ci"]
    return _sha256(out["estimate"], ci.estimate, ci.half_width)


def gaussian_observe(out):
    return {"rel_err": rel_err(out["estimate"], out["theta"]),
            "coverage": out["ci"].coverage_rate(out["theta"])}


# --- pauli_m5 --------------------------------------------------------------

PAULI_SIZE = {"d": 32, "k": 1, "settings": 160, "repetitions": 320}


def pauli_op(seq, index, workdir, size=PAULI_SIZE):
    theta_seed, data_seed = seq.spawn(2)
    theta = quantum.gen_density_matrix(size["d"], size["k"], theta_seed)
    dataset = quantum.simulate_dataset(theta, size["settings"], size["repetitions"],
                                       data_seed)
    batch, obs = dataset.to_trace_regression()
    estimate, state = iht.run_iht(batch, obs)
    return {"theta": theta, "estimate": estimate, "state": state}


def pauli_check(out, first, rel_err_max=PAULI_REL_ERR_MAX):
    failures = []
    est = out["estimate"]
    gap = float(np.max(np.abs(est - est.conj().T)))
    if not gap <= HERMITIAN_TOL:
        failures.append(f"estimate not Hermitian (gap {gap:.3e})")
    err = rel_err(est, out["theta"])
    if not err < rel_err_max:
        failures.append(f"rel_err {err:.4g} not under {rel_err_max}")
    return failures


def pauli_digest(out):
    return _sha256(out["estimate"])


def pauli_observe(out):
    return {"rel_err": rel_err(out["estimate"], out["theta"])}


# --- cli_grids -------------------------------------------------------------

def cli_seed(seq) -> int:
    return int(seq.generate_state(1, np.uint64)[0])


def cli_op(seq, index, workdir, extra=()):
    """The three default grids, in-process, into a fresh directory.

    The warm-up op (index 0) runs at CLI seed 0 so its CSVs can be compared
    with the recorded hashes.
    """
    seed = 0 if index == 0 else cli_seed(seq)
    root = os.path.join(workdir, f"op{index}")
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for command in CLI_COMMANDS:
            codes[command] = cli.main([command, "--out", os.path.join(root, command),
                                       "--seed", str(seed), "--workers", "1", *extra])
    return {"root": root, "codes": codes, "seed": seed}


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cli_check(out, first):
    failures = [f"{cmd} exited {code}" for cmd, code in out["codes"].items() if code != 0]
    if failures:
        return failures
    for command in CLI_COMMANDS:
        folder = os.path.join(out["root"], command)
        written = _read(os.path.join(folder, "aggregate.csv"))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["report", "--out", folder])
        if code != 0:
            failures.append(f"report on {command} exited {code}")
        elif _read(os.path.join(folder, "aggregate.csv")) != written:
            failures.append(f"report did not rebuild {command}/aggregate.csv byte for byte")
    if out["seed"] == 0:
        for rel, expected in CLI_SEED0_SHA256.items():
            got = hashlib.sha256(_read(os.path.join(out["root"], rel))).hexdigest()
            if got != expected:
                failures.append(f"{rel} at seed 0 has sha256 {got}, expected {expected}")
    return failures


def _deterministic_files(root):
    for command in CLI_COMMANDS:
        for name in ("metrics.csv", "aggregate.csv", "coordinates.csv"):
            path = os.path.join(root, command, name)
            if os.path.exists(path):
                yield path


def cli_digest(out):
    h = hashlib.sha256()
    for path in _deterministic_files(out["root"]):
        h.update(_read(path))
    return h.hexdigest()


def cli_observe(out):
    with open(os.path.join(out["root"], "simulate-matrix", "metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    coverage = [float(r["coverage"]) for r in rows if r.get("coverage")]
    return {"coverage": float(np.mean(coverage))} if coverage else {}


WORKLOADS = {
    w.name: w for w in (
        Workload("gaussian_d64",
                 "reference dense case: d=64 n=4000 k=3 Gaussian design plus CIs; "
                 "design passes and Gaussian generation dominate",
                 gaussian_op, gaussian_check, gaussian_digest, gaussian_observe),
        Workload("pauli_m5",
                 "5-qubit Pauli tomography, n=5120 complex Hermitian rows; dataset "
                 "assembly dominates, no Gaussian design",
                 pauli_op, pauli_check, pauli_digest, pauli_observe),
        Workload("cli_grids",
                 "the three default CLI grids in-process: many small replicates, "
                 "per-call overhead, sparse and the CSV path",
                 cli_op, cli_check, cli_digest, cli_observe),
    )
}


# The workloads BENCHMARK.json declares. pauli_m5 stays runnable, with its
# check unchanged, but is not declared: about 0.2% of its ops fail the rel_err
# check through the estimator defect described at PAULI_REL_ERR_MAX, so a
# 45 s run reports correct=false about one time in ten. Every layer it runs
# also runs on cli_grids (the m=3 quantum grid).
DECLARED = ("gaussian_d64", "cli_grids")


def run_op(workload: Workload, seq, index, workdir):
    """Run one op, recording every warning; returns (out, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = workload.op(seq, index, workdir)
    return out, caught


def unexpected_warnings(caught) -> list[str]:
    return [f"unexpected {w.category.__name__}: {w.message}" for w in caught
            if EXPECTED_WARNING not in str(w.message)]
