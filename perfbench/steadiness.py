#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads A,B] [--seeds 1,2,...]
                                    [--seconds S] [--out FILE]

Runs `perfbench/run.py` once per workload and seed, one run at a time, and
prints for every end-to-end metric its median over the seeds and its spread:
the distance between the first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of the median.  A metric whose
spread exceeds a third of its BENCHMARK.json bound is flagged; setup_s is
reported but exempt, since its bound gates the median alone.  --out saves
every run's result object as JSON for a later comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        runs[workload] = results
        print(f"{workload} ({len(seeds)} seeds)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s, med = spread(values)
            flag = ""
            if name != "setup_s" and s > bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:16s} median {med:<14.6g} spread {s:7.4f} "
                  f"(bound {bound}){flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
