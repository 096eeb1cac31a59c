#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 bench/suite/run.py --workload serve_hot --seed 1 --seconds 10 \
        --trace 0

Run it from the repository root. The harness and the library are built
into build-bench/ (configured on first use, an incremental no-op after),
the harness self-test runs, then geopriv_bench runs the workload. Build
output goes to stderr, so the last stdout line is the harness's result
line. A traced run (--trace 1) also writes a Chrome trace to
build-bench/traces/<workload>-seed<seed>.json.

Exits non-zero, printing no result, when the build or the self-test fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
HARNESS_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "geopriv_bench",
         "geopriv_bench_selftest"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        [os.path.join(BUILD, "geopriv_bench_selftest"),
         os.path.join(ROOT, "BENCHMARK.json")],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1

    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    command = [os.path.join(BUILD, "geopriv_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", scratch]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(command, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("geopriv_bench timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
