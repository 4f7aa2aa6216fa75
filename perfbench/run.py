#!/usr/bin/env python3
"""Builds the wire-level benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fetch-bulk --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
omqe_server binary and the load generator into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild only what changed. Build output goes to
stderr, so the last line on stdout is always the load generator's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fetch-bulk", "session-churn", "prepare-under-fetch"]
# The program the benchmark builds; without it there is nothing to measure.
REQUIRED = ["CMakeLists.txt", "src/server/server.h", "examples/omqe_server.cpp"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the two targets; returns True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "omqe_server_bin", "perfbench_loadgen"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a source checkout (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "omqe", "examples", "omqe_server"),
           "--workdir", workdir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
