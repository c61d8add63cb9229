"""Benchmark of the lowrank_iht package: closed-loop ops, one client, in-process.

    python3 perfbench/run.py                       # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1             # every workload, per-layer metrics
    python3 perfbench/run.py --workload gaussian_d64 --seed 3 --seconds 45 --trace 0

Each workload runs in a fresh Python process that imports the package from
``src/`` of the checkout this file sits in. The last line of the output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are the readable report. Details, spans and run metadata go
to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# Counts come from this many traced ops, so they repeat exactly for a seed.
COUNT_OPS = 4
CHILD_TIMEOUT_S = 150


def child_env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(repeats=SETUP_REPEATS) -> list[float]:
    """Seconds to ``import lowrank_iht`` in fresh processes. One untimed
    import first, so byte-compiling a fresh checkout is not counted."""
    code = ("import time; t = time.perf_counter(); import lowrank_iht; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout))
    return times


# --- run metadata ----------------------------------------------------------

def _read_text(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(index / f) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    return out


def _openblas():
    """(version/config string, runtime thread count) of the OpenBLAS numpy
    loaded. numpy.show_runtime reports threads only through threadpoolctl,
    so the count is read from the library itself."""
    import ctypes
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    version = f"{blas.get('name')} {blas.get('version')}"
    maps = _read_text("/proc/self/maps") or ""
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    import scipy

    blas_version, blas_threads = _openblas()
    return {
        "workload": workload, "seed": seed, "warmup_op_seed": [seed, 0],
        "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "caches": _caches(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_version, "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
    }


# --- the closed loop -------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    seconds: float
    failures: list = field(default_factory=list)
    digest: str | None = None
    observed: dict = field(default_factory=dict)


def run_one(workload, seed: int, index: int, workdir: Path, tracer=None) -> OpRecord:
    """Time one op, then check it untimed. Any exception fails the op only."""
    from workloads import op_seed, run_op, unexpected_warnings

    seq = op_seed(seed, index)
    out = None
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter()
    try:
        out, caught = run_op(workload, seq, index, str(workdir))
    except Exception:  # a failing op is counted and the loop goes on
        record = OpRecord(index, time.perf_counter() - start,
                          [traceback.format_exc(limit=3).strip()])
    else:
        record = OpRecord(index, time.perf_counter() - start)
    finally:
        if tracer is not None:
            tracer.op = None
    if out is not None:
        try:
            record.failures += unexpected_warnings(caught) + workload.check(out, index == 0)
            record.digest = workload.digest(out)
            record.observed = workload.observe(out)
        except Exception:
            record.failures.append(traceback.format_exc(limit=3).strip())
    shutil.rmtree(workdir / f"op{index}", ignore_errors=True)
    for failure in record.failures:
        print(f"op {index} failed: {failure}", file=sys.stderr)
    return record


def run_loop(workload, seed: int, seconds: float, workdir: Path, first: int = 1,
             min_ops: int = 1) -> list[OpRecord]:
    """Closed loop: the next op starts when the previous one is checked,
    until ``seconds`` have passed and at least ``min_ops`` ran."""
    records = []
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        records.append(run_one(workload, seed, first + len(records), workdir))
    return records


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def warm_and_loop(workload, seed: int, seconds: float) -> tuple[list[OpRecord], float]:
    """The warm-up op 0, then the timed loop. Also returns the peak RSS in
    MiB after the warm-up op."""
    workdir = OUT / f"work-{os.getpid()}"
    try:
        warmup = run_one(workload, seed, 0, workdir)
        warm_rss = peak_rss_mib()
        return [warmup, *run_loop(workload, seed, seconds, workdir)], warm_rss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def ok_times(records) -> list[float]:
    return [r.seconds for r in records if not r.failures]


def tail_percentile(times) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n >= 100:
        return f"op_s_p90 {statistics.quantiles(times, n=10)[-1]:.4f} s"
    if n <= 10:
        return f"op_s_p90 not reported: {n} ops leave no percentile with ten beyond it"
    rank = n - 10  # ten samples lie above the rank-th smallest
    return (f"op_s_p90 not reported: {n} ops < 100; highest percentile with ten "
            f"samples beyond it is p{100 * rank // n} = {sorted(times)[rank - 1]:.4f} s")


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def write_out(name: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, default=str))
    return path


def run_end_to_end(workload, args, meta) -> dict:
    from metrics import END_TO_END

    setup = measure_setup()
    records, warm_rss = warm_and_loop(workload, args.seed, args.seconds)
    timed = ok_times(records[1:])
    if not timed:
        raise SystemExit("every timed op failed")
    values = {
        "op_s_p50": statistics.median(timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": warm_rss,
    }
    run_rss = peak_rss_mib()
    ops_per_s = len(timed) / sum(r.seconds for r in records[1:])
    failed = sum(1 for r in records if r.failures)
    rel = [r.observed["rel_err"] for r in records if "rel_err" in r.observed]

    print(f"perfbench {workload.name} seed={args.seed} trace=0: {len(timed)} timed ops "
          f"in {sum(timed):.1f} s, one client, closed loop, workers=1")
    for name, unit, _, _ in END_TO_END:
        print(f"  {name:<12} {values[name]:.6g} {unit}")
    print(f"  ops_per_s    {ops_per_s:.6g} 1/s (ops completed per second of op time)")
    print(f"  {tail_percentile(timed)}")
    print(f"  run_peak_rss {run_rss:.6g} MiB (whole run; peak_rss_mb stops after the "
          "warm-up op)")
    print(f"  fail_rate    {failed}/{len(records)} = {failed / len(records):.4g}")
    if rel:
        print(f"  rel_err      {statistics.median(rel):.6g} (median over {len(rel)} ops)")
    print(f"  setup_s is the median of {len(setup)} fresh-process imports: "
          + ", ".join(f"{t:.3f}" for t in setup))
    path = write_out(f"{workload.name}-seed{args.seed}-trace0.json", {
        "meta": meta, "values": values, "ops_per_s": ops_per_s, "setup_s": setup,
        "run_peak_rss_mb": run_rss,
        "ops": [vars(r) for r in records]})
    print(f"  details: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: metric(values[name], unit) for name, unit, _, _ in END_TO_END}}


def single_thread_baseline(workload: str, seed: int, seconds: float):
    """op_s_p50 of the workload in a fresh process with one BLAS thread."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--loop-only"],
        env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"single-threaded baseline exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_traced(workload, args, meta) -> dict:
    """Untraced and traced runs of the same ops, interleaved pair by pair
    with alternating order, so the overhead estimate carries no warm-up or
    drift bias."""
    from metrics import PER_LAYER, TARGETS, per_layer
    from tracing import Tracer

    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer(TARGETS)
    untraced, traced = [], []
    try:
        warmup = run_one(workload, args.seed, 0, workdir)
        start = time.perf_counter()
        while len(traced) < COUNT_OPS or time.perf_counter() - start < args.seconds:
            index = len(traced) + 1
            for with_trace in ((False, True) if index % 2 else (True, False)):
                if with_trace:
                    with tracer:
                        traced.append(run_one(workload, args.seed, index, workdir, tracer))
                else:
                    untraced.append(run_one(workload, args.seed, index, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for before, after in zip(untraced, traced):
        if before.digest != after.digest:
            after.failures.append("traced output differs from untraced output")
    records = [warmup, *untraced, *traced]
    attempted = len(records)
    failed = sum(1 for r in records if r.failures)

    blas1 = single_thread_baseline(workload.name, args.seed, args.seconds / 2)
    attempted += blas1["attempted"]
    failed += blas1["failed"]
    if blas1["blas_threads"] != 1:
        failed += 1
        print(f"single-threaded baseline ran {blas1['blas_threads']} BLAS threads",
              file=sys.stderr)

    if not ok_times(untraced) or not ok_times(traced):
        raise SystemExit("every op of a phase failed")
    count_ops = [r.index for r in traced[:COUNT_OPS]]
    coverage = [r.observed["coverage"] for r in traced[:COUNT_OPS] if "coverage" in r.observed]
    values = per_layer(tracer.spans, {r.index: r.seconds for r in traced}, count_ops,
                       tracer.absent, statistics.fmean(coverage) if coverage else 0.0,
                       statistics.median(ok_times(untraced)), blas1["op_s_p50"])

    op_p50 = values["trace.traced_op_s_p50"]
    print(f"perfbench {workload.name} seed={args.seed} trace=1: {len(traced)} ops, each "
          f"run untraced and traced; self times are per-op means, counts per-op means "
          f"over the first {len(count_ops)} traced ops")
    for name, unit, _ in PER_LAYER:
        share = (f"  {100 * values[name] / op_p50:5.1f}% of traced op_s_p50"
                 if name.endswith("self_s") and op_p50 else "")
        print(f"  {name:<45} {values[name]:.6g} {unit}{share}")
    if tracer.absent:
        print(f"  absent layers (function not found, reported as 0): {', '.join(tracer.absent)}")
    print("  trace_model.design_gb_per_s_computed is design bytes of each apply/adjoint "
          f"call over its self time, computed not measured; caches {meta['caches']} may "
          "hold the whole design, so it is not a memory bandwidth figure")
    print(f"  blas1.op_s_p50 is this workload with OPENBLAS_NUM_THREADS=1, against "
          f"{values['trace.untraced_op_s_p50']:.4f} s with {meta['blas_threads']} "
          "threads; reported, not gated")
    path = write_out(f"{workload.name}-seed{args.seed}-trace1.json", {
        "meta": meta, "values": values, "absent": tracer.absent, "blas1": blas1,
        "ops": [vars(r) for r in records], "spans": tracer.as_records()})
    print(f"  details and spans: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}}


def run_loop_only(workload, args) -> dict:
    records, _ = warm_and_loop(workload, args.seed, args.seconds)
    return {"op_s_p50": statistics.median(ok_times(records[1:]) or [0.0]),
            "attempted": len(records), "failed": sum(1 for r in records if r.failures),
            "blas_threads": _openblas()[1]}


def run_all(args) -> int:
    """Each workload in its own fresh process, output passed through."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    if not (SRC / "lowrank_iht" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'lowrank_iht'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=45,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--loop-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.loop_only:
        print(json.dumps(run_loop_only(workload, args)))
        return 0
    meta = run_metadata(workload.name, args.seed, args.seconds, args.trace)
    print("meta " + json.dumps(meta))
    result = (run_traced if args.trace else run_end_to_end)(workload, args, meta)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
