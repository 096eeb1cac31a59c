#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 bench/suite/spread.py [--runs 10] [--first-seed 1]
                                  [--workloads serve_hot,serve_churn]
                                  [--json PATH]

Runs the benchmark command from BENCHMARK.json --runs times per workload,
each run a fresh process with its own seed, cycling through the workloads
so no workload's runs sit together in time. For each metric and workload
it prints the median and the spread (q3 - q1) / median, with q1/q3 from
statistics.quantiles(values, n=4), next to the metric's bound. A spread
at or above a third of its bound is flagged: the bound would not reliably
separate a regression from noise. A spread above the bound is marked
OVER.

Run it from the repository root; --json PATH also writes every value and
every run's detail line.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--json")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {} for w in workloads}
    details = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            start = time.monotonic()
            detail, result = run_once(bench["command"], w, seed, args.seconds)
            details[w].append(detail)
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  f"{time.monotonic() - start:.1f} s", file=sys.stderr)

    worst = 0.0
    print(f"{'workload':16s} {'metric':18s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            v = values[w][name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = ""
            if spread > bound:
                flag = " <-- OVER bound"
            elif spread >= bound / 3:
                flag = " <-- over bound/3"
            worst = max(worst, spread / bound)
            print(f"{w:16s} {name:18s} {med:12.6g} {spread:8.4f} "
                  f"{bound:6.3f}{flag}")
    print(f"largest spread / bound: {worst:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"values": values, "details": details}, f, indent=1)


if __name__ == "__main__":
    main()
