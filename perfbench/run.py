#!/usr/bin/env python3
"""Build the Fibbing benchmark (fibbing_perf) and run one workload.

    python3 perfbench/run.py --workload surge --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. fibbing_perf and libfibbing are built from
source (Release) into .bench_build/ on first use. fibbing_perf's output is
passed through; its last line is the JSON result. Build output goes to
stderr. See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "fibbing_perf")
# A run must end within 180 s; a first run also builds, which may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.hpp")):
        sys.exit("perfbench: no Fibbing sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "fibbing_perf", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["surge", "viewers", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write(err.stdout or "")
        sys.exit(f"perfbench: fibbing_perf did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    if result.returncode < 0:
        # Killed by a signal (a FIB_ASSERT abort): a failed run.
        print(f"# FAILED fibbing_perf died with signal {-result.returncode}")
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        sys.exit(1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
