#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (and the candle sources it
drives) into .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the program's
JSON result.  Traces, per-layer tables and untraced end-to-end records are
written to .bench_build/out.  Exits non-zero, printing no result, when the
build or the run fails.
"""
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "candle_perfbench")


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                             "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    run = subprocess.run([BINARY, *sys.argv[1:], "--out-dir", OUT_DIR], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
