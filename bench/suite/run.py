#!/usr/bin/env python3
"""Builds memgoal_bench from source and runs one benchmark workload.

Usage, from the root of a checkout of the repository:

  python3 bench/suite/run.py --workload paper_base --seed 1 --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR when set, else .bench_build. Build
output goes to stderr, so stdout carries only the benchmark's report, whose
last line is the JSON result. The exit status is the benchmark's: non-zero
when the build fails or a correctness check does.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
# A run measures --seconds of work plus its set-ups; anything past this is
# a hang.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = any(
            os.path.exists(os.path.join(build_dir, name))
            for name in ("build.ninja", "Makefile"))
        if not generated:
            configure = ["cmake", "-S", SUITE_DIR, "-B", build_dir]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "memgoal_bench",
             "--parallel", str(min(4, os.cpu_count() or 1))],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "memgoal_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
