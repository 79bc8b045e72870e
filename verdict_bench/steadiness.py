#!/usr/bin/env python3
"""Steadiness check for the verdict benchmark.

Runs each workload several times, each time with another --seed, and prints
for every end-to-end metric the median and the quartile spread (the distance
between the first and third quartiles as a share of the median, computed with
statistics.quantiles(values, n=4)) beside the metric's bound in
BENCHMARK.json. A spread below a third of its bound is steady. It also prints
each workload's failed share, which must be the same in every run.

With --traced N it instead makes N traced runs per workload and requires
every count-valued per-layer metric to repeat exactly.

Run from the repository root:

    python3 verdict_bench/steadiness.py [--runs 10] [--workloads a,b]
    python3 verdict_bench/steadiness.py --traced 2
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def steadiness(bench, command, workloads, runs, first_seed):
    steady = True
    for workload in workloads:
        results = [
            run_once(command, workload, first_seed + i, bench["run_seconds"], False)
            for i in range(runs)
        ]
        shares = {(r["failed"], r["attempted"]) for r in results}
        share_set = {f / a for f, a in shares}
        print(f"\n{workload}: {runs} runs, failed/attempted {sorted(shares)}"
              f"{'' if len(share_set) == 1 else '  FAILED SHARE VARIES'}")
        steady &= len(share_set) == 1
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            share, q1, q3 = spread(values)
            ok = share < metric["bound"] / 3
            steady &= ok
            print(f"  {name:<24}{statistics.median(values):>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{share:>9.4f}{metric['bound']:>8}{'' if ok else '  UNSTEADY'}")
    return steady


def traced_repeats(bench, command, workloads, runs, first_seed):
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    same = True
    for workload in workloads:
        results = [
            run_once(command, workload, first_seed + i, bench["run_seconds"], True)
            for i in range(runs)
        ]
        print(f"\n{workload}: {runs} traced runs")
        for name in counts:
            values = [r["metrics"][name]["value"] for r in results]
            equal = len(set(values)) == 1
            same &= equal
            print(f"  {name:<30}{values[0]:>16.0f}{'' if equal else '  DIFFERS: ' + str(values)}")
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0,
                        help="make this many traced runs and compare work counters")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    if args.traced:
        ok = traced_repeats(bench, bench["command"], workloads, args.traced, args.first_seed)
    else:
        ok = steadiness(bench, bench["command"], workloads, args.runs, args.first_seed)
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
