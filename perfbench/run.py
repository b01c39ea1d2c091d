#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program and runs workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --selftest

Without --workload, every workload runs in turn, each followed by its own
result line.

The program (perfbench/main.cpp) is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs only re-check the build.  Build output goes to standard error.

The program's report lines are forwarded to standard output, followed by one
JSON result line, checked against BENCHMARK.json: with --trace 0 it carries
every end-to-end metric, with --trace 1 every per-layer metric.  Spans of a
traced run are written to <build dir>/traces/<workload>-seed<N>.jsonl.

Exit status: 0 when every check passed; 1 when a check failed (the result
line then says correct=false); 2 when the program could not be built or run
or its output does not match BENCHMARK.json (no result line is printed).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lemming_tree", "readmostly_service", "mc_verify")
# A run must end within 180 s; the program is stopped shortly before.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src; run from a "
             "checkout of the repository")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns the ways `result` disagrees with BENCHMARK.json."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name in sorted(set(declared) ^ set(metrics)):
        problems.append(f"metric {name} is "
                        + ("missing" if name in declared else "not declared"))
    for name, m in metrics.items():
        value = m.get("value")
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"metric {name} has unit {m.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"end-to-end metric {name} reads 0")
    return problems


def run_workload(args, bdir):
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit status {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload}: last line is not a result: {lines[-1]!r}")
    problems = check_result(result, args.trace)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="the workload to run (default: each in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the metric-math self-tests")
    args = ap.parse_args()
    if args.selftest:
        bdir = build()
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              cwd=ROOT).returncode
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")
    bdir = build()
    if args.workload is not None:
        return run_workload(args, bdir)
    status = 0
    for workload in WORKLOADS:
        args.workload = workload
        status = max(status, run_workload(args, bdir))
    return status


if __name__ == "__main__":
    sys.exit(main())
