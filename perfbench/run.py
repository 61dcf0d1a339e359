#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload rush_hour|name_walk|page_storm \
        --seed N --seconds S --trace 0|1

The first run configures and compiles the kernel sources and the benchmark
benchmark binary into .bench_build/perfbench (CMake, Release); later runs
only check that the build is current.  Build output goes to standard error,
so the last line of standard output is the binary's JSON result.  The exit
code is the binary's: 0 when every output checked out, non-zero otherwise
(including a failed build).
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mks_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # One build at a time per checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            except OSError as err:
                print(f"cannot run {cmd[0]}: {err}", file=sys.stderr)
                return False
            if done.returncode != 0:
                return False
    return True


def main():
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
