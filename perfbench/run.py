#!/usr/bin/env python3
"""Builds the layered benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_rw|analytics|protocols \
        --seed N --seconds S --trace 0|1

The binary is configured with CMake into .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the binary's JSON result. Every TOPOFAQ_* variable is
removed from the binary's environment, so no knob changes what is measured.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "topofaq_perfbench")
WORKLOADS = ("serve_rw", "analytics", "protocols")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs,
              "--target", "topofaq_perfbench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("TOPOFAQ_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
