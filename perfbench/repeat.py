#!/usr/bin/env python3
"""Run one workload N times with different seeds and summarise each metric.

Run from the root of the repository:

    python3 perfbench/repeat.py --workload hot_mix --runs 10 [--first-seed 1]

Each run is untraced and measures for the run_seconds of BENCHMARK.json, the
window the bounds hold for. For every metric it prints the median, the first
and third quartiles (as statistics.quantiles(values, n=4) gives them) and the
spread: the distance between the quartiles as a share of the median. Compare
the spread with the metric's bound in BENCHMARK.json when setting or
re-checking the bounds. It also prints the share of failed operations per
run, which must not differ between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, units, failed_shares = {}, {}, []
    for i in range(args.runs):
        seed = args.first_seed + i
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        failed_shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
              f"in {time.monotonic() - start:.1f} s", file=sys.stderr)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  unit")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = "" if spread <= bound / 3 else "  <-- above a third of the bound"
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bound:>6}  {units[name]}{flag}")
    print(f"failed share per run: {sorted(set(failed_shares))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
