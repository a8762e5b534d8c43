"""Helpers shared by run.py and compare.py: percentile selection, span
self time, spread and the per-metric verdict of two result sets.

Pure functions over plain lists, so tests/test_benchlib.py can check
them on hand-made inputs.
"""

import math
import statistics

# Percentiles considered when choosing the highest one a sample supports.
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_SAMPLES_BEYOND = 10


def _rank(n, p):
    # The tolerance keeps binary rounding (99.9 / 100 * 10000 reads
    # 9990.000000000002) from pushing an exact rank one up.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(values, p):
    """The nearest-rank p-th percentile (0 < p <= 100) of `values`."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def highest_supported_percentile(n, ladder=PERCENTILE_LADDER,
                                 min_beyond=MIN_SAMPLES_BEYOND):
    """The highest percentile of `ladder` with at least `min_beyond` of
    n samples beyond it, or None when even the lowest has fewer."""
    for p in sorted(ladder, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def sliced_percentile(latencies, ends, p, min_per_slice=1000,
                      max_slices=4):
    """The median over consecutive time slices of the run of each slice's
    nearest-rank p-th percentile.

    Ops are ordered by completion time (`ends`) and cut into as many
    equal-count slices as hold `min_per_slice` ops each, at most
    `max_slices`. A host stall that hits one slice moves that slice's
    percentile but not the median. With fewer ops than two slices need
    this is the plain percentile of the run.
    """
    slices = min(max_slices, len(latencies) // min_per_slice)
    if slices <= 1:
        return nearest_rank(latencies, p)
    ordered = [lat for _, lat in sorted(zip(ends, latencies))]
    size = len(ordered) / slices
    return statistics.median(
        nearest_rank(ordered[round(i * size):round((i + 1) * size)], p)
        for i in range(slices))


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its children (overlapping children count once).

    `spans` is a list of dicts with t0, t1 and parent (an index into the
    list, -1 for roots). Returns a list aligned with `spans`.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        t0, t1 = span["t0"], span["t1"]
        intervals = sorted(
            (max(spans[c]["t0"], t0), min(spans[c]["t1"], t1))
            for c in children[i])
        covered = 0
        end = t0
        for begin, finish in intervals:
            begin = max(begin, end)
            if finish > begin:
                covered += finish - begin
                end = finish
        out.append(t1 - t0 - covered)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for a zero
    median with zero spread, inf when only the median is zero)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


IMPROVED = "improved"
NO_WORSE = "no worse"
WORSE = "worse"
UNRESOLVED = "unresolved"


def verdict(parent, change, better, bound, parent_seeds, change_seeds):
    """The verdict for one metric on one workload.

    parent, change: the metric's value in each run of the two sides, and
    parent_seeds, change_seeds: each run's seed; runs pair by seed.
    better: "lower" or "higher". bound: the share of the parent's median
    the change may be worse by (None for per-layer metrics).

    - improved: the change wins at least 9 of 10 pairs (ties count for
      neither) and the medians differ by more than the parent's own
      interquartile distance;
    - unresolved: no two runs share a seed; or not improved, and either
      side spreads wider than the bound, unless every change run reads
      better than every parent run;
    - worse: the change's median is worse than the parent's by more than
      the bound (per-layer: by more than the parent's spread, with the
      parent winning 9 of 10 pairs);
    - no worse: otherwise.
    """
    by_seed = dict(zip(parent_seeds, parent))
    pairs = [(by_seed[s], v) for s, v in zip(change_seeds, change)
             if s in by_seed]
    if not pairs:
        return UNRESOLVED
    sign = -1.0 if better == "lower" else 1.0

    def gain(a, b):  # > 0 when b is better than a
        return sign * (b - a)

    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    losses = sum(1 for a, b in pairs if gain(a, b) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    diff = gain(p_med, c_med)

    if wins >= 0.9 * len(pairs) and diff > (p_q3 - p_q1):
        return IMPROVED
    all_better = all(gain(a, b) > 0 for a in parent for b in change)
    if bound is None:
        if losses >= 0.9 * len(pairs) and -diff > (p_q3 - p_q1):
            return WORSE
        return NO_WORSE
    if max(spread(parent), spread(change)) > bound and not all_better:
        return UNRESOLVED
    worse_by = -diff / abs(p_med) if p_med != 0 else (
        0.0 if diff >= 0 else math.inf)
    return WORSE if worse_by > bound else NO_WORSE
