#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--first-seed 100] [WORKLOAD ...]

Runs each workload (all four by default) once per seed, seeds
first-seed, first-seed+1, ..., and prints for every end-to-end metric
the median of its values and the distance between their first and third
quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json. Runs that are not correct are reported and left out.
The per-run results are appended to perfbench/_runs/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    log = os.path.join(ROOT, "perfbench", "_runs", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            p = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            with open(log, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
            if not result or not result["correct"]:
                print(f"{w} seed {seed}: not correct (exit {p.returncode})",
                      file=sys.stderr)
                continue
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, xs in sorted(values.items()):
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            rel = (q3 - q1) / med if med else float("nan")
            print(f"{w:8} {k:16} n={len(xs):2} median={med:<12.6g} "
                  f"iqr/median={rel:.3f} bound={bounds.get(k)}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
