"""Each workload in a tiny configuration with its checks, the traced path,
and the declared metric lists."""

import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as W  # noqa: E402
from metrics import END_TO_END, PER_LAYER, TARGETS, per_layer  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_GAUSSIAN = {"n": 600, "d": 8, "k": 2}
TINY_PAULI = {"d": 8, "k": 1, "settings": 40, "repetitions": 200}


def test_gaussian_smoke_passes_checks():
    out = W.gaussian_op(W.op_seed(3, 0), 0, None, size=TINY_GAUSSIAN)
    assert W.gaussian_check(out, first=True, rel_err_max=0.5) == []
    assert 0 < W.gaussian_observe(out)["coverage"] <= 1


def test_gaussian_check_catches_a_wrong_estimate():
    out = W.gaussian_op(W.op_seed(3, 0), 0, None, size=TINY_GAUSSIAN)
    out["estimate"] = out["estimate"] * 2.0
    # the decomposition identity holds for any estimate, so only rel_err fails
    failures = W.gaussian_check(out, first=True, rel_err_max=0.5)
    assert len(failures) == 1 and failures[0].startswith("rel_err")


def test_pauli_smoke_passes_checks():
    out = W.pauli_op(W.op_seed(3, 1), 1, None, size=TINY_PAULI)
    assert W.pauli_check(out, first=False, rel_err_max=1.0) == []
    out["estimate"] = out["estimate"].copy()
    out["estimate"][0, 1] += 1e-6
    assert any("Hermitian" in f for f in W.pauli_check(out, False, rel_err_max=1.0))


def test_cli_smoke_and_seed0_hashes(tmp_path):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*settings will repeat")
        warm = W.cli_op(W.op_seed(0, 0), 0, str(tmp_path))
        small = W.cli_op(W.op_seed(5, 1), 1, str(tmp_path), extra=("--replicates", "1"))
    assert W.cli_check(warm, first=True) == []
    assert W.cli_check(small, first=False) == []
    assert W.cli_digest(small) != W.cli_digest(warm)
    metrics = tmp_path / "op1" / "simulate-sparse" / "metrics.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    row = lines[2].split(",")
    lines[2] = ",".join([*row[:4], "123.0", *row[5:]])  # the l2_sq column
    metrics.write_text("".join(lines))
    assert any("byte for byte" in f for f in W.cli_check(small, first=False))


def test_warnings_other_than_repeated_settings_are_failures():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.warn("cell asks for 40 settings; settings will repeat", RuntimeWarning)
        warnings.warn("apply_design discarded imaginary parts up to 1e-3", RuntimeWarning)
    assert len(W.unexpected_warnings(caught)) == 1


def test_traced_outputs_equal_untraced_and_every_layer_metric_is_reported():
    plain = W.gaussian_op(W.op_seed(4, 1), 1, None, size=TINY_GAUSSIAN)
    tracer = Tracer(TARGETS)
    with tracer:
        tracer.op = 1
        traced = W.gaussian_op(W.op_seed(4, 1), 1, None, size=TINY_GAUSSIAN)
        tracer.op = None
    assert W.gaussian_digest(traced) == W.gaussian_digest(plain)
    assert tracer.absent == []
    names = {s.name for s in tracer.spans}
    assert {"trace_model.gen_gaussian_design", "trace_model.apply_design", "linalg.svd",
            "iht.iht_step", "inference.entry_scale_matrix"} <= names
    values = per_layer(tracer.spans, {1: 1.0}, [1], tracer.absent, 0.9, 1.0, 0.0)
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["iht.apply_per_iteration"] == 2.0
    assert values["iht.iterations"] == traced["state"].iteration


def test_benchmark_json_declares_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(name, W.WORKLOADS[name].why) for name in W.DECLARED]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pauli_m5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
