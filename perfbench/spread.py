"""Run every workload over several seeds and print the spread of each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ref-study,oracle-cli]

Run it from the repository root. For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. Runs go one after another, workload by workload.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed.append(f"{result['failed']}/{result['attempted']}{'' if result['correct'] else ' INCORRECT'}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: failed/attempted {' '.join(failed)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {(q3 - q1) / med:.3f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
