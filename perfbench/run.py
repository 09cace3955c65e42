#!/usr/bin/env python3
"""Closed-loop serving benchmark for TARDIS.

Builds the benchmark driver (perfbench/CMakeLists.txt: the TARDIS libraries
from src/ plus tardis_perfbench) and runs one workload in a fresh process:

    python3 perfbench/run.py --workload knn_hot --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout. Build output goes to
$CARGO_TARGET_DIR (default .bench_build) under the checkout; the run's data
and index live in a scratch directory there and are deleted afterwards. The
traced run (--trace 1) leaves its Chrome-trace JSON in
<build dir>/traces/<workload>.trace.json.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics. perfbench/NOTES.md explains the
workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("knn_hot", "exact_cold")
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "tardis_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "tardis_perfbench")


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(os.getcwd(), build_root)
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(build_root, f"run-{os.getpid()}")
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--git-rev", git_rev(),
           "--trace-out",
           os.path.join(trace_dir, f"{args.workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        log("benchmark printed no result line")
        return 1
    names = set(result.get("metrics", {}))
    want = expected_metrics(args.trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            names != want:
        log(f"result does not match BENCHMARK.json: missing "
            f"{sorted(want - names)}, unexpected {sorted(names - want)}")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
