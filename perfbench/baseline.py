#!/usr/bin/env python3
"""Measure a baseline: repeated runs of every workload, with medians and quartiles.

Run from the repository root:

    python3 perfbench/baseline.py --first-seed 101 --out perfbench/baseline.json

Every workload of ``BENCHMARK.json`` runs ten untraced runs of
``run_seconds`` each, one seed each, then one traced run.  For every end-to-end metric the file keeps each run's value, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, which is the distance between the quartiles over the median.
Runs go one at a time, so the benchmark never competes with itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(details line, result line) of one benchmark run."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    doc = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        values: dict = {}
        attempted = failed = 0
        env = []
        for seed in seeds:
            detail, result = run(name, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            env.append(detail["environment"])
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  result["failed"], flush=True)
        detail, traced = run(name, seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "end_to_end": {k: summary(v) for k, v in values.items()},
            "attempted": attempted,
            "failed": failed,
            "environment": env,
            "per_layer_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
