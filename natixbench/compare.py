#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric and workload
by workload.

    python3 natixbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files run.py wrote (<build dir>/results/):
one per run, stamped with workload, seed and trace flag. Runs pair by
seed. Bounds and directions come from BENCHMARK.json. Verdicts follow
benchlib.verdict: improved, no worse (within the bound), worse, or
unresolved (spread wider than the bound, or a p99 of a run with fewer
than ten ops beyond it). Next to p99_ms it judges the run's plain p99
from the stamp, without a bound. Runs whose stamps differ in
nproc, build type, NATIX_OBS, run length or host speed are not
comparable; the tool says so. Exit status 1 when any verdict is
"worse", 2 on unusable input.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

COMPARABLE_KEYS = ("nproc", "build_type", "natix_obs", "seconds")
# Median host speeds (run.py's stamp) further apart than this share make
# the two sides' timings incomparable: a shared host can swing by 2x,
# while one 0.1-s reading scatters by about 10%.
HOST_SPEED_TOLERANCE = 0.2
# p99_ms is the median of slice p99s (run.py), which a tail regression
# confined to part of a run does not move. The run's plain p99, stamped
# next to it, gets a verdict of its own without a bound: "worse" when
# the change loses nine pairs in ten by more than the parent's spread.
PLAIN_P99 = {"name": "p99_plain_ms", "unit": "ms", "better": "lower"}


def load_set(directory):
    """{(workload, trace): [(seed, stamp, metrics)]} of one result set."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            data = json.load(f)
        stamp = data["stamp"]
        metrics = {name: m["value"]
                   for name, m in data["result"]["metrics"].items()}
        runs.setdefault((stamp["workload"], stamp["trace"]), []).append(
            (stamp["seed"], stamp, metrics))
    return runs


def stamp_mismatches(parent_runs, change_runs):
    """Stamp fields that differ between the two sides of one workload."""
    out = []
    for key in COMPARABLE_KEYS:
        left = {r[1].get(key) for r in parent_runs}
        right = {r[1].get(key) for r in change_runs}
        if left != right:
            out.append(f"{key}: {sorted(map(str, left))} vs "
                       f"{sorted(map(str, right))}")
    speeds = []
    for runs in (parent_runs, change_runs):
        readings = [v for r in runs for v in r[1].get("host_speed", [])]
        speeds.append(statistics.median(readings) if readings else None)
    if None not in speeds and abs(speeds[1] - speeds[0]) > (
            HOST_SPEED_TOLERANCE * speeds[0]):
        out.append(f"host_speed: {speeds[0]:.3g} vs {speeds[1]:.3g} "
                   "Mloops/s, timings measured at different host speeds")
    return out


def metric_values(runs, name):
    """(seed, value) of each run that reports `name`; the plain p99 is
    read from the stamp."""
    source = 1 if name == PLAIN_P99["name"] else 2
    return [(r[0], r[source][name]) for r in runs if name in r[source]]


def p99_supported(stamp):
    """Whether a run had at least ten ops beyond its p99."""
    supported = stamp.get("highest_supported_percentile")
    return supported is not None and supported >= 99


def compare(spec, parent, change):
    """Rows of (workload, metric, parent median, change median, verdict)
    plus comparability warnings."""
    declared = {0: spec["end_to_end"] + [PLAIN_P99], 1: spec["per_layer"]}
    rows, warnings = [], []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        for problem in stamp_mismatches(p_runs, c_runs):
            warnings.append(f"{workload} trace={trace}: {problem}")
        for metric in declared[trace]:
            name = metric["name"]
            p_pairs = metric_values(p_runs, name)
            c_pairs = metric_values(c_runs, name)
            if not p_pairs or not c_pairs:
                continue
            p_seeds, p_vals = zip(*p_pairs)
            c_seeds, c_vals = zip(*c_pairs)
            result = benchlib.verdict(p_vals, c_vals, metric["better"],
                                      metric.get("bound"), p_seeds, c_seeds)
            if name in ("p99_ms", PLAIN_P99["name"]) and not all(
                    p99_supported(r[1]) for r in p_runs + c_runs):
                warnings.append(f"{workload}: {name} of a run with fewer "
                                "than ten samples beyond it")
                result = benchlib.UNRESOLVED
            rows.append((workload, name, benchlib.quartiles(p_vals),
                         benchlib.quartiles(c_vals), len(p_vals),
                         len(c_vals), result))
    for key in sorted(set(parent) ^ set(change)):
        warnings.append(f"{key[0]} trace={key[1]}: only on one side")
    return rows, warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    parent, change = load_set(args.parent), load_set(args.change)
    if not parent or not change:
        print("compare: no result files", file=sys.stderr)
        return 2
    rows, warnings = compare(spec, parent, change)
    for warning in warnings:
        print("warning: " + warning)
    print(f"{'workload':12} {'metric':34} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'runs':>7}  verdict")
    for workload, name, pq, cq, pn, cn, result in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{workload:12} {name:34} {fmt(pq):>30} {fmt(cq):>30} "
              f"{pn:>3}/{cn:<3}  {result}")
    return 1 if any(r[-1] == benchlib.WORSE for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
