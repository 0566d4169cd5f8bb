#!/usr/bin/env python3
"""Smoke test of memgoal_bench: every workload of BENCHMARK.json in --quick
mode, plain and traced.

Usage: smoke.py <path to memgoal_bench>

Checks, per workload:
  - both runs exit 0 and report correct with no failed operation (the
    binary itself checks the invariant auditor, corrupt_served == 0 and the
    closure of the attainment budget, and fails the run otherwise);
  - every end-to-end metric (plain run) and every per-layer metric (traced
    run) named in BENCHMARK.json is printed as "name value unit" with its
    unit, and appears in the JSON line;
  - sim_digest is the same in the plain and the traced run.
"""

import json
import os
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(SUITE_DIR, "..", "..", "BENCHMARK.json")


def run(binary, workload, trace):
    """Runs one quick workload; returns (printed metrics, digest, result)."""
    proc = subprocess.run(
        [binary, f"--workload={workload}", "--seed=1", "--quick",
         f"--trace={trace}"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    digest = None
    for line in lines[:-1]:
        name, value, unit = line.split()
        if name == "sim_digest":
            digest = value
        else:
            printed[name] = (float(value), unit)
    return printed, digest, result


def check_metrics(workload, trace, specs, printed, result):
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if printed.get(name, (None, None))[1] != unit:
            raise AssertionError(
                f"{workload} trace={trace}: {name} not printed in {unit}")
        reported = result["metrics"].get(name)
        if reported is None or reported["unit"] != unit:
            raise AssertionError(
                f"{workload} trace={trace}: {name} missing from the JSON")
    extra = set(result["metrics"]) - {spec["name"] for spec in specs}
    if extra:
        raise AssertionError(
            f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    with open(BENCHMARK_JSON) as f:
        benchmark = json.load(f)
    for workload in (w["name"] for w in benchmark["workloads"]):
        digests = []
        for trace, specs in ((0, benchmark["end_to_end"]),
                             (1, benchmark["per_layer"])):
            printed, digest, result = run(binary, workload, trace)
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{workload} trace={trace}: {result}")
            check_metrics(workload, trace, specs, printed, result)
            digests.append(digest)
        if digests[0] is None or digests[0] != digests[1]:
            raise AssertionError(f"{workload}: sim_digest {digests}")
        print(f"ok {workload} sim_digest={digests[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
