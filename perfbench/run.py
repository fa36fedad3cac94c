#!/usr/bin/env python3
"""Builds and runs the xqa benchmark.

One workload, as the benchmark contract calls it (run from the repository
root):

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0

Every workload, each in its own process, end-to-end then traced:

    python3 perfbench/run.py --all --seed 1 --seconds 10

The benchmark's own arithmetic tests:

    python3 perfbench/run.py --selftest

The engine is built from ../src into .bench_build (or $CARGO_TARGET_DIR)
with CMake in Release mode; build output goes to stderr. The last line of
standard output of a workload run is its result object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dashboard", "adhoc", "ingest", "report"]


def build(target):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", target],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        json.loads(lines[-1])  # the result line must parse
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if args.selftest:
        return subprocess.run([build("perfbench_selftest")]).returncode
    if not args.all and args.workload is None:
        parser.error("give --workload, --all or --selftest")

    binary = build("xqa_perfbench")
    if not args.all:
        return run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            status |= run_one(binary, workload, args.seed, args.seconds, trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
