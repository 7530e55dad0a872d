#!/usr/bin/env python3
# Copyright 2026 The obtree Authors.
"""Builds the map benchmark in Release and runs one workload.

    python3 mapbench/run.py --workload point-read --seed 1 --seconds 20 --trace 0
    python3 mapbench/run.py --check     # the benchmark's own check test

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build; store files and span files go to .bench_out. The last
line of standard output is the run's JSON result (see README.md).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point-read", "skewed-churn", "durable-ingest")


def fail(msg):
    print("mapbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds; a no-op build when nothing changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "obtree", "api",
                                       "concurrent_map.h")):
        fail("obtree sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr so the result stays the last stdout line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="build and run the check test instead of a workload")
    args = ap.parse_args()
    if not args.check and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    if args.check:
        cmd = [os.path.join(build_dir, "mapbench_check_test"),
               os.path.join(ROOT, ".bench_out", "check")]
    else:
        cmd = [os.path.join(build_dir, "mapbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(),
               "--work-dir", os.path.join(ROOT, ".bench_out")]
    try:
        r = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        fail("exited with code %d: %s" % (r.returncode, " ".join(cmd)))


if __name__ == "__main__":
    main()
