#!/usr/bin/env python3
"""Builds the Sharon benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lr_sparse --seed 1 --seconds 10 --trace 0

The library and the harness are configured with CMake into .bench_build/
(perfbench/CMakeLists.txt builds the repository's own library target, so
the sources under src/ are what gets measured). The harness prints a
human-readable report, then one JSON object as the last line of standard
output. Build output goes to standard error. Exits non-zero, without a
result line, when the sources are missing or the build or run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "sharon_perfbench")
WORKLOADS = ("lr_sparse", "drift_control", "plan_scale")

CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quietly(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "sharon.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no Sharon sources here (missing %s)" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not run_quietly(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           CONFIGURE_TIMEOUT_S):
            fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if not run_quietly(["cmake", "--build", BUILD_DIR, "--target",
                            "sharon_perfbench", "-j", jobs],
                           BUILD_TIMEOUT_S):
            fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("harness printed no result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
