#!/usr/bin/env python3
"""Summarises and compares result files written by `run.sh --out FILE`.

    compare.py spread  BENCHMARK.json RUNS.jsonl
    compare.py compare BENCHMARK.json OLD.jsonl NEW.jsonl

A result file holds one JSON object per line: the workload, seed and trace
flag of a run and its result line. Only untraced runs (`"trace": 0`) carry
end-to-end metrics, and only those are read here.

`spread` prints, per workload and end-to-end metric, the median of the
runs and the distance between their first and third quartile as a share
of the median, next to the metric's bound.

`compare` prints one row per workload and end-to-end metric with a verdict,
and exits non-zero if any is `worse`:

    worse       NEW's median is worse than OLD's by more than the bound
    better      NEW's median is better by more than the bound, or every NEW
                run is better than every OLD run
    unresolved  the change is within the bound, but the runs of one side
                spread wider than the bound, so "no change" is not shown
    same        otherwise
"""

import json
import statistics
import sys


def load(path):
    """{workload: {metric: [values]}} of the untraced runs in `path`."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            if run.get("trace") != 0:
                continue
            if not run["result"]["correct"]:
                sys.exit(f"{path}: a {run['workload']} run (seed {run['seed']}) was not correct")
            by_metric = runs.setdefault(run["workload"], {})
            for name, m in run["result"]["metrics"].items():
                by_metric.setdefault(name, []).append(m["value"])
    return runs


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_spread(bench, runs):
    print(f"{'workload':<10} {'metric':<18} {'runs':>4} {'median':>14} {'spread':>8} {'bound':>7}")
    for w in runs:
        for m in bench["end_to_end"]:
            values = runs[w].get(m["name"])
            if not values:
                continue
            print(
                f"{w:<10} {m['name']:<18} {len(values):>4} {statistics.median(values):>14.6g} "
                f"{spread(values):>8.2%} {m['bound']:>7.0%}"
            )


def verdict(metric, old, new):
    sign = 1 if metric["better"] == "higher" else -1
    change = sign * (statistics.median(new) - statistics.median(old)) / statistics.median(old)
    if change < -metric["bound"]:
        return change, "worse"
    clear = min(sign * v for v in new) > max(sign * v for v in old)
    if change > metric["bound"] or clear:
        return change, "better"
    if max(spread(old), spread(new)) > metric["bound"]:
        return change, "unresolved"
    return change, "same"


def print_compare(bench, old, new):
    worse = False
    print(f"{'workload':<10} {'metric':<18} {'old':>14} {'new':>14} {'change':>8} {'bound':>7}  verdict")
    for w in old:
        for m in bench["end_to_end"]:
            o, n = old[w].get(m["name"]), new.get(w, {}).get(m["name"])
            if not o or not n:
                continue
            change, v = verdict(m, o, n)
            worse |= v == "worse"
            print(
                f"{w:<10} {m['name']:<18} {statistics.median(o):>14.6g} {statistics.median(n):>14.6g} "
                f"{change:>+8.2%} {m['bound']:>7.0%}  {v}"
            )
    return worse


def main(argv):
    if len(argv) == 4 and argv[1] == "spread":
        print_spread(json.load(open(argv[2])), load(argv[3]))
        return 0
    if len(argv) == 5 and argv[1] == "compare":
        return int(print_compare(json.load(open(argv[2])), load(argv[3]), load(argv[4])))
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
