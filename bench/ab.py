#!/usr/bin/env python3
"""Compares one bench between two builds by alternating runs.

    python3 bench/ab.py --parent ../parent/build --change build \\
        --bench bench_e13_exec_throughput --rounds 5 --match 'batch_size=1024'

Each round runs `<build>/bench/<bench> --json` once per build, the two
builds taking turns at going first, so drift on a shared host (clock
frequency, neighbours) falls on both sides alike. Arguments after `--` go to
the bench (for example `-- --smoke`). Rows pair up by their position in the
document and are labelled by the fields before the metric column that read
the same in every run (for bench_e13: workload, batch size, threads, rows),
leaving out "-" cells.

For each row the script prints the parent's median with its first-to-third
quartile range, the change's median, the relative difference of the
medians, and in how many rounds the change beat the parent in the same
round. A change is clearly better on a row when it wins nearly every round
and its median lies outside the parent's quartile range. Rows whose metric
is not a number (a "-" cell) are skipped. The exit code is 0 when every run
succeeded.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run_once(build, bench, extra):
    """Runs the bench once and returns its rows."""
    binary = os.path.join(build, "bench", bench)
    done = subprocess.run([binary, "--json", *extra], capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"ab.py: {binary} exited {done.returncode}\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout)["rows"]


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def labels(runs, metric):
    """One label per row position: the fields before `metric` whose value is
    the same in every run, leaving out empty ("-") cells."""
    first = runs[0]
    for rows in runs:
        if len(rows) != len(first):
            sys.exit("ab.py: the runs printed different numbers of rows")
    out = []
    for i, row in enumerate(first):
        if metric not in row:
            sys.exit(f"ab.py: no column {metric!r}; columns: {list(row)}")
        parts = []
        for field in row:
            if field == metric:
                break
            if row[field] != "-" and all(rows[i].get(field) == row[field]
                                         for rows in runs):
                parts.append(f"{field}={row[field]}")
        out.append(" ".join(parts))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="build directory of the baseline")
    parser.add_argument("--change", required=True,
                        help="build directory of the change")
    parser.add_argument("--bench", required=True,
                        help="bench binary name under <build>/bench/")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--metric", default="plain_ms",
                        help="row column to compare (default plain_ms)")
    parser.add_argument("--higher-is-better", action="store_true",
                        help="for throughput columns such as qps")
    parser.add_argument("--match", default="",
                        help="only print rows whose label matches this regex")
    parser.add_argument("extra", nargs="*",
                        help="arguments passed to the bench, after --")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    runs = {"parent": [], "change": []}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            build = args.parent if side == "parent" else args.change
            runs[side].append(run_once(build, args.bench, args.extra))
        print(f"ab.py: round {r + 1}/{args.rounds} done", file=sys.stderr,
              flush=True)

    names = labels(runs["parent"] + runs["change"], args.metric)
    pattern = re.compile(args.match)
    shown = [i for i, name in enumerate(names) if pattern.search(name)]
    width = max([len(names[i]) for i in shown] + [3])
    better = "higher" if args.higher_is_better else "lower"
    print(f"{args.bench}: {args.metric}, {args.rounds} alternating rounds, "
          f"{better} is better")
    print(f"{'row':<{width}} {'parent median [q1, q3]':>28} {'change':>10} "
          f"{'diff':>8} {'wins':>6}")
    for i in shown:
        name = names[i]
        parent = [rows[i][args.metric] for rows in runs["parent"]]
        change = [rows[i][args.metric] for rows in runs["change"]]
        if not all(is_number(x) for x in parent + change):
            continue
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        q1, q3 = quartiles(parent)
        if args.higher_is_better:
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        diff = (c_med - p_med) / p_med * 100 if p_med else float("nan")
        spread = f"{p_med:.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"{name:<{width}} {spread:>28} {c_med:>10.4g} {diff:>+7.1f}% "
              f"{wins:>3}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
