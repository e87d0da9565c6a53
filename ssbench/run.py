#!/usr/bin/env python3
"""Builds and runs the SummaryStore end-to-end benchmark.

    python3 ssbench/run.py --workload query|mixed --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (and the store's libraries from src/) under .bench_build/ssbench;
later runs only re-check the build. The benchmark's output is passed through;
its last stdout line is the JSON result. Exits non-zero, without a result,
when the store's sources are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ssbench")
WORK = os.path.join(ROOT, ".bench_build", "ssbench-work")
OUT = os.path.join(ROOT, ".bench_build", "ssbench-out")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "ssbench"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["query", "mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "summary_store.h")):
        print("ssbench: no SummaryStore sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("ssbench: build failed: %s" % err, file=sys.stderr)
        return 3

    work = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "ssbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("ssbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
