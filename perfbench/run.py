"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It starts perfbench/worker.py in a fresh
interpreter with BLAS and OpenMP pinned to one thread and passagelab taken
from src/, waits for it, writes the run's output file under
perfbench/results/, and prints one JSON line: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

setup_s runs from just before the worker starts to the end of its input
generation: interpreter start, imports and inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="seconds-long problem sizes")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "passagelab" / "__init__.py").is_file():
        print(f"error: no passagelab sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=root, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    doc = json.loads(lines[-1])

    if args.trace:
        metrics = doc["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": doc["wall_s"], "unit": "s"},
            "setup_s": {"value": doc["ready_monotonic"] - started, "unit": "s"},
            "peak_rss_mb": {"value": doc["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
        }
    result = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "result": result,
        **{k: v for k, v in doc.items() if k not in ("per_layer", "ready_monotonic")},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for check in doc["failed_checks"]:
        print(f"check failed: {check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
