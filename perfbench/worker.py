"""One benchmark run in a fresh interpreter; run.py starts it.

It imports passagelab from the checkout's src/, builds the workload's inputs
from the seed and notes the monotonic clock (the end of set-up). It runs whole
rounds until --seconds have passed, reads its peak resident set, checks every
round's outputs and prints one JSON line. With --trace 1 it first runs one untraced
round, then traced rounds, and reports per-layer metrics instead.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import warnings

import numpy as np

import passagelab as pl

import checks
import tracing
import workloads


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "fft_backend": "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft_umath") else "numpy.fft",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def physics(value):
    """Physics outputs as JSON: scalars and short lists, no long arrays."""
    if isinstance(value, dict):
        return {k: physics(v) for k, v in value.items() if not (isinstance(v, np.ndarray) and v.size > 16)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def run_checks(inp, out: dict) -> list:
    if inp.name == "ref-study":
        return checks.check_ref_study(out, inp.expect, tuple(inp.configs))
    if inp.name == "sweep-slow":
        return checks.check_sweep(out, inp.expect)
    return checks.check_oracle(out, inp.expect, [c[0] for c in inp.commands])


def measure(inp, seconds: float, trace: bool) -> dict:
    rounds, outputs = [], []
    tracer = None
    untraced_wall = None
    if trace:
        rnd = workloads.Round()
        outputs.append(inp.round(rnd))
        rounds.append(rnd)
        untraced_wall = rnd.wall_s
        tracer = tracing.Tracer()
        tracer.install()
    timed = []  # the rounds the printed metrics describe
    start = time.monotonic()
    try:
        while True:
            after = None if tracer is None else lambda: tracer.digest(workloads.kept_rank)
            rnd = workloads.Round(after_op=after)
            outputs.append(inp.round(rnd, mapper=None if tracer is None else tracer.mapper))
            rounds.append(rnd)
            timed.append(rnd)
            if time.monotonic() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    extra = {}
    if inp.name == "ref-study":
        extra["free_propagation_rel_err"] = inp.free_propagation_error()
    per_round = [run_checks(inp, {**out, **extra}) for out in outputs]
    failed_checks = [c.__dict__ for round_checks in per_round for c in round_checks if not c.ok]
    doc = {
        "rounds": [
            {
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "traced": tracer is not None and r in timed,
                "ops": [{"name": o.name, "wall_s": o.wall_s, "error": o.error} for o in r.ops],
            }
            for r in rounds
        ],
        "wall_s": statistics.median(r.wall_s for r in timed),
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "peak_rss_kb": peak_rss_kb,
        "correct": not failed_checks,
        "checks": [c.__dict__ for c in per_round[-1]],
        "failed_checks": failed_checks,
        "physics": physics({**outputs[-1], **extra}),
    }
    if tracer is not None:
        csv_rows = outputs[-1].get("csv_rows", 0)
        doc["per_layer"] = tracer.metrics(
            len(timed),
            csv_rows,
            statistics.fmean(r.cpu_s for r in timed),
            statistics.fmean(r.wall_s for r in timed),
            untraced_wall,
        )
        doc["spans"] = tracer.table()
        doc["computed"] = list(tracing.COMPUTED)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    # the fast rate's horizon warning is expected; it is not what is measured
    warnings.simplefilter("ignore", pl.RegimeWarning)

    src = (Path.cwd() / "src").resolve()
    if Path(pl.__file__).resolve().parent.parent != src:
        print(f"passagelab imported from {pl.__file__}, not from {src}", file=sys.stderr)
        return 2
    tmp_root = Path(__file__).resolve().parent / "tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        scale = workloads.SMOKE if args.smoke else workloads.FULL
        inp = workloads.make_inputs(args.workload, args.seed, work_dir, scale)
        ready = time.monotonic()
        doc = measure(inp, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    doc["ready_monotonic"] = ready
    doc["machine"] = machine_info()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
