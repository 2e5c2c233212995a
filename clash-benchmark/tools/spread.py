#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way the driver measures it.

Runs the BENCHMARK.json command N times per workload, each time with
another --seed, and prints for every end-to-end metric the distance
between the first and third quartile of its N values as a share of their
median (statistics.quantiles(values, n=4)), next to the metric's bound.
A spread above a third of the bound is flagged.

    python3 clash-benchmark/tools/spread.py [--runs 10] [--first-seed 1]
                                            [--workload NAME ...] [--trace 0|1] [--values]

Run it from the repo root on an otherwise idle machine.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="also print every run's value, in run order")
    args = ap.parse_args()

    contract = json.load(open("BENCHMARK.json"))
    declared = contract["end_to_end"] if args.trace == "0" else contract["per_layer"]
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in declared}
        walls = []
        for i in range(args.runs):
            cmd = contract["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(contract["run_seconds"]),
                "--trace", args.trace,
            ]
            t0 = time.time()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            walls.append(time.time() - t0)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or set(result["metrics"]) != set(values):
                sys.exit(f"{workload} seed {args.first_seed + i}: bad result line {result}")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"\n{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s each")
        print(f"  {'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in declared:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  > bound/3" if spread > bound / 3 else ""
            print(f"  {m['name']:<40} {med:>14.6g} {spread:>7.2%} {bound if bound is not None else '-':>6}{flag}")
            if args.values:
                print("      " + " ".join(f"{x:.6g}" for x in v))
    if args.trace == "0":
        print(f"\nworst spread/bound over bounded metrics: {worst:.2f} (target < 0.33)")


if __name__ == "__main__":
    main()
