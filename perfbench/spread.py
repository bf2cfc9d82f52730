#!/usr/bin/env python3
"""Runs one workload over several seeds and prints, per metric, the median
and the spread (first-to-third quartile distance over the median), the way
the benchmark's bounds in BENCHMARK.json are checked.

    python3 perfbench/spread.py --workload matview_mix --runs 10 --seconds 30

Seeds are first_seed, first_seed + 1, ...; pass --trace 1 for the per-layer
metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    bounds = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        for metric in json.load(f)["end_to_end"]:
            bounds[metric["name"]] = metric["bound"]

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}"
                  f"\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: done", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.runs} runs of {args.seconds} s")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("ok" if spread < bound / 3
                       else "within bound" if spread < bound else "TOO WIDE")
            verdict = f"bound {bound:.2f}: {verdict}"
        print(f"  {name:42s} median {median:14.6f}  spread {spread:7.3f}  "
              f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
