#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, metric by metric.

    python3 bench/e2e/compare.py A_DIR B_DIR

Each directory holds one file per run: bench_e2e's standard output (its
"workload <name>, seed <n>" line and the JSON result line). Runs of a
workload are paired in seed order, so A and B should use the same seeds,
run alternately. For every workload x metric it prints each side's median
and quartiles, the share of pairs B won (ties count for neither), and a
verdict against BENCHMARK.json's bound for end-to-end metrics:

  better      B won at least 9 of 10 pairs and the medians differ by more
              than A's own quartile spread
  worse       B's median is worse than A's by more than the bound
  unresolved  either side's quartile spread exceeds the bound and not every
              B run beats (or loses to) every A run
  unchanged   otherwise

Per-layer metrics have no bound and are printed without a verdict. The exit
status is 1 when any metric is worse or any run got a verdict wrong.
"""
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_set(directory):
    """{workload: [(seed, result)]} from every run file in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = f.read().strip().splitlines()
        header = next((m for m in (re.match(r"workload (\S+), seed (\d+)", l)
                                   for l in lines) if m), None)
        if not lines or header is None:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            continue
        runs.setdefault(header.group(1), []).append(
            (int(header.group(2)), result))
    for results in runs.values():
        results.sort(key=lambda r: r[0])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, lower_is_better, bound):
    """Classifies B against A (lists of values, paired by index)."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return share, ""
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if share >= 0.9 and abs(mb - ma) > (qa3 - qa1) and sign * (mb - ma) < 0:
        return share, "better"
    if spread > bound and not (all_better or all_worse):
        return share, "unresolved"
    if worse_by > bound:
        return share, "worse"
    return share, "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    set_a, set_b = load_set(sys.argv[1]), load_set(sys.argv[2])
    status = 0
    print("%-20s %-34s %-30s %-30s %7s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "delta", "B won", "verdict"))
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = set_a.get(workload, []), set_b.get(workload, [])
        if not a_runs or not b_runs:
            continue
        for _, result in a_runs + b_runs:
            if not result.get("correct") or result.get("failed"):
                status = 1
        metrics = [m for m in a_runs[0][1]["metrics"]
                   if all(m in r["metrics"] for _, r in a_runs + b_runs)]
        for metric in metrics:
            a = [r["metrics"][metric]["value"] for _, r in a_runs]
            b = [r["metrics"][metric]["value"] for _, r in b_runs]
            n = min(len(a), len(b))
            share, v = verdict(a[:n], b[:n], lower.get(metric, True),
                               bounds.get(metric))
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) * 100 if qa[1] else 0.0
            print("%-20s %-34s %-30s %-30s %+6.1f%% %5.0f%%  %s" % (
                workload, metric, "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
                "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]), delta,
                share * 100, v))
            if v == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
