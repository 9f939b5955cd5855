#!/usr/bin/env python3
"""Benchmark of the qweinstein package: one workload, one run, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``.  Load is a closed loop with one
client in this process: the next operation starts when the previous one
returns.  Every operation is checked; one that raises or misses its check
counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics: set-up time (median over
fresh interpreters that import the package and finish the first
operation), warm operation latency, the share of operations that passed
their check, peak memory and accuracy digits.
``--trace 1`` reports the per-layer metrics of ``spans.py`` from a
separate run whose operations alternate untraced and traced; the two
timings give the tracing overhead.  The last line of standard output is
the result as JSON; the line before it carries the environment and the
details behind the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1        # single-threaded BLAS: steadier on a small shared machine
SETUP_REPEATS = 5       # fresh interpreters timed per run; the median is reported
ACCURACY_OPS = 48       # digits come from the first operations, so a seed fixes them
P90_MIN_SAMPLES = 100   # op_p90_s needs ten samples beyond it


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
    }


def time_setup(name: str, seed: int, workdir: Path) -> tuple[float, bool]:
    """Seconds a fresh interpreter takes to import and finish operation 0; success.

    A failed set-up counts with the time until its interpreter exited.
    """
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(seed),
                           str(workdir)], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        print(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()}",
              file=sys.stderr)
        return time.monotonic() - start, False
    return float(proc.stdout.split()[0]) - start, True


def run_op(w, seed: int, index: int, workdir: Path, tracer=None):
    """Build, time and check one operation: (seconds, Outcome)."""
    from workloads import Outcome

    inp = w.inputs(seed, index)
    if tracer is not None:
        tracer.op = index
        tracer.install()
    problem = ""
    start = time.perf_counter()
    try:
        out = w.run(inp, workdir)
    except Exception as exc:  # a failed operation is counted, not fatal
        problem = f"raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if problem:
        return elapsed, Outcome({}, problem)
    try:
        return elapsed, w.check(inp, out, workdir)
    except Exception as exc:
        return elapsed, Outcome({}, f"check raised {exc!r}")


def measure(w, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, int, int]:
    """Untraced run: end-to-end metrics, details, attempted, failed."""
    # untimed warm-up set-up: compiles bytecode and fills the file cache
    _, ok = time_setup(w.name, seed, workdir)
    attempted, failed = 1, int(not ok)
    setup, latencies, worst = [], [], {}
    passed = 0
    start = time.monotonic()
    deadline = start + seconds
    # set-ups are spread over the run, so their median does not hang on
    # whether the machine was fast or slow during one short stretch
    setup_due = [start + seconds * (i + 0.5) / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    index = 0
    while index < ACCURACY_OPS or time.monotonic() < deadline or len(setup) < SETUP_REPEATS:
        if len(setup) < SETUP_REPEATS and time.monotonic() >= setup_due[len(setup)]:
            elapsed, ok = time_setup(w.name, seed, workdir)
            setup.append(elapsed)
            attempted += 1
            failed += not ok
            continue
        elapsed, outcome = run_op(w, seed, index, workdir)
        attempted += 1
        passed += outcome.ok
        if not outcome.ok:
            failed += 1
            print(f"operation {index} failed: {outcome.problem}", file=sys.stderr)
        if index:                       # operation 0 is cold; set-up covers it
            latencies.append(elapsed)
        if index < ACCURACY_OPS:
            # a check that missed its tolerance is counted in `failed`;
            # digits describe the checks that passed
            for key, err in outcome.errors.items():
                if err <= w.TOLS[key]:
                    worst[key] = max(worst.get(key, 0.0), err)
        index += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # -log10 of the worst error; a check no operation passed reads 0 digits,
    # an exact result 17
    named = {key: -math.log10(max(worst[key], 1e-17)) if key in worst else 0.0
             for key in w.TOLS}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        # share of the run's operations that passed; set-ups repeat
        # operation 0, so they count in `failed` but not here
        "ok_frac": (passed / index, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
        "plancherel_digits": (named["plancherel"], "digits"),
        "inversion_digits": (named["inversion"], "digits"),
        "check_digits": (min(named[key] for key in w.CHECK), "digits"),
    }
    detail = {"setup_samples": setup, "op_samples": len(latencies),
              "accuracy_ops": ACCURACY_OPS, "digits": named}
    if len(latencies) >= P90_MIN_SAMPLES:
        detail["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    return metrics, detail, attempted, failed


def measure_traced(w, seed: int, seconds: float, workdir: Path, out_dir: Path,
                   header: dict) -> tuple[dict, dict, int, int]:
    """Traced run: per-layer metrics, details, attempted, failed.

    Operation 0 is traced with a cold kernel-family cache.  After it each
    operation runs twice, untraced and traced in alternating order; the
    per-operation metrics come from those warm traced runs.
    """
    from spans import Tracer

    tracer = Tracer()
    attempted = failed = 0
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    index = 0
    while index < 2 or time.monotonic() < deadline:
        order = (None, tracer) if index % 2 else (tracer, None)
        for t in (order if index else (tracer,)):
            elapsed, outcome = run_op(w, seed, index, workdir, t)
            attempted += 1
            if not outcome.ok:
                failed += 1
                print(f"operation {index} failed: {outcome.problem}", file=sys.stderr)
            if index:
                (plain if t is None else traced).append(elapsed)
        index += 1
    metrics = tracer.layer_metrics(set(range(1, index)), cold_op=0)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{w.name}-seed{seed}.npz"
    tracer.write(trace_path, header)
    detail = {"traced_ops": len(traced), "spans": len(tracer.spans) // len(tracer.FIELDS),
              "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, detail, attempted, failed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qweinstein" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'qweinstein'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import qweinstein
    from workloads import WORKLOADS

    if Path(qweinstein.__file__).resolve().parent != SRC / "qweinstein":
        print(f"error: imported qweinstein from {qweinstein.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    env = dict(environment(), loadavg_start=os.getloadavg())
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=tmp_root) as tmp:
        if args.trace:
            header = {"workload": w.name, "seed": args.seed, "environment": env}
            metrics, detail, attempted, failed = measure_traced(
                w, args.seed, args.seconds, Path(tmp), ROOT / ".bench_out", header)
        else:
            metrics, detail, attempted, failed = measure(w, args.seed, args.seconds, Path(tmp))
    with contextlib.suppress(OSError):   # left in place while another run uses it
        tmp_root.rmdir()
    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                      "environment": env, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
