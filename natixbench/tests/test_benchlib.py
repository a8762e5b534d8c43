"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s natixbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import benchlib  # noqa: E402
import compare  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.nearest_rank(values, 50), 50)
        self.assertEqual(benchlib.nearest_rank(values, 99), 99)
        self.assertEqual(benchlib.nearest_rank(values, 100), 100)
        self.assertEqual(benchlib.nearest_rank([7], 99), 7)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 50), 2)

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.samples_beyond(999, 99), 9)
        self.assertEqual(benchlib.samples_beyond(10000, 99.9), 10)
        self.assertEqual(benchlib.samples_beyond(100, 50), 50)

    def test_highest_supported_percentile(self):
        # p99 needs ten samples beyond it: 1000 samples do, 999 do not.
        self.assertEqual(benchlib.highest_supported_percentile(10000), 99.9)
        self.assertEqual(benchlib.highest_supported_percentile(2000), 99.5)
        self.assertEqual(benchlib.highest_supported_percentile(1000), 99.0)
        self.assertEqual(benchlib.highest_supported_percentile(999), 98.0)
        self.assertEqual(benchlib.highest_supported_percentile(200), 95.0)
        self.assertEqual(benchlib.highest_supported_percentile(20), 50.0)
        self.assertIsNone(benchlib.highest_supported_percentile(19))


class SlicedPercentileTest(unittest.TestCase):
    def test_few_ops_is_the_plain_percentile(self):
        lat = list(range(1, 1500))
        self.assertEqual(
            benchlib.sliced_percentile(lat, list(range(len(lat))), 99),
            benchlib.nearest_rank(lat, 99))

    def test_a_stall_in_one_slice_does_not_move_it(self):
        # 4000 ops at 1 ms; the second slice has a stall of 200 ops at
        # 50 ms, enough to drag the run's plain p99 up to 50.
        lat = [1.0] * 4000
        for i in range(1100, 1300):
            lat[i] = 50.0
        ends = list(range(4000))
        self.assertEqual(benchlib.nearest_rank(lat, 99), 50.0)
        self.assertEqual(benchlib.sliced_percentile(lat, ends, 99), 1.0)

    def test_slices_follow_completion_time(self):
        # Slow ops listed last but completing first all fall into one
        # slice once ordered by end time.
        lat = [1.0] * 3000 + [50.0] * 60
        ends = list(range(60, 3060)) + list(range(60))
        self.assertEqual(benchlib.sliced_percentile(lat, ends, 99), 1.0)
        # Spread evenly over time they reach every slice's p99.
        ends = [i * 51 % 3060 for i in range(3060)]
        self.assertEqual(benchlib.sliced_percentile(lat, ends, 99), 50.0)


def span(t0, t1, parent=-1):
    return {"t0": t0, "t1": t1, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_and_root(self):
        spans = [span(0, 100), span(10, 30, 0), span(50, 60, 0)]
        self.assertEqual(benchlib.self_times(spans), [70, 20, 10])

    def test_overlapping_children_count_once(self):
        # Children from two threads may overlap; coverage is a union.
        spans = [span(0, 100), span(10, 50, 0), span(40, 70, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 40)

    def test_children_clipped_to_parent(self):
        spans = [span(10, 20), span(5, 15, 0), span(18, 40, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 3)

    def test_grandchildren_do_not_count_for_grandparent(self):
        spans = [span(0, 100), span(0, 60, 0), span(0, 50, 1)]
        self.assertEqual(benchlib.self_times(spans), [40, 10, 50])


def verdict(parent, change, better, bound=None):
    """benchlib.verdict with the runs of both sides made on seeds 0..n."""
    return benchlib.verdict(parent, change, better, bound,
                            list(range(len(parent))),
                            list(range(len(change))))


class VerdictTest(unittest.TestCase):
    def test_improved_needs_nine_of_ten_wins_and_a_gap(self):
        parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
        change = [v - 1.0 for v in parent]
        self.assertEqual(
            verdict(parent, change, "lower", 0.1),
            benchlib.IMPROVED)
        self.assertEqual(
            verdict(parent, [v + 1.0 for v in parent], "higher",
                             0.1),
            benchlib.IMPROVED)

    def test_small_gain_is_no_worse(self):
        parent = [10.0, 10.4, 9.6, 10.2, 10.0, 9.8, 10.3, 10.1, 9.7, 10.0]
        change = [v * 0.99 for v in parent]  # wins every pair, gap < IQR
        self.assertEqual(verdict(parent, change, "lower", 0.1),
                         benchlib.NO_WORSE)

    def test_worse_beyond_bound(self):
        parent = [10.0] * 5 + [10.1] * 5
        change = [11.5] * 5 + [11.6] * 5
        self.assertEqual(verdict(parent, change, "lower", 0.1),
                         benchlib.WORSE)
        # Within the bound it is no worse.
        self.assertEqual(verdict(parent, change, "lower", 0.2),
                         benchlib.NO_WORSE)

    def test_wide_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [v + 0.5 for v in parent]
        self.assertEqual(verdict(parent, change, "lower", 0.1),
                         benchlib.UNRESOLVED)

    def test_wide_spread_but_every_run_better(self):
        parent = [20.0, 30.0, 25.0, 22.0, 28.0]
        change = [10.0, 15.0, 12.0, 11.0, 14.0]
        self.assertEqual(verdict(parent, change, "lower", 0.05),
                         benchlib.IMPROVED)
        # Better in every run, but the gap is inside the parent's
        # spread: not a gain, and not unresolved either.
        change = [19.0, 19.5, 18.0, 19.9, 18.5]
        self.assertEqual(verdict(parent, change, "lower", 0.05),
                         benchlib.NO_WORSE)

    def test_pairs_follow_seeds(self):
        seeds = list(range(10))
        parent = [10.0 + s for s in seeds]
        # The change is 6 worse on every seed, listed in reverse order.
        # Paired by position it would lose only 8 of 10 pairs.
        change = [16.0 + s for s in reversed(seeds)]
        self.assertEqual(
            benchlib.verdict(parent, change, "lower", None, seeds,
                             list(reversed(seeds))),
            benchlib.WORSE)
        # Runs with no seed in common do not pair.
        self.assertEqual(
            benchlib.verdict(parent, change, "lower", None, seeds,
                             [s + 100 for s in seeds]),
            benchlib.UNRESOLVED)

    def test_per_layer_counts(self):
        self.assertEqual(verdict([100] * 5, [80] * 5, "lower"),
                         benchlib.IMPROVED)
        self.assertEqual(verdict([100] * 5, [120] * 5, "lower"),
                         benchlib.WORSE)
        self.assertEqual(verdict([100] * 5, [100] * 5, "lower"),
                         benchlib.NO_WORSE)

    def test_spread(self):
        self.assertAlmostEqual(benchlib.spread([1.0, 2.0, 3.0, 4.0, 5.0]),
                               (4.5 - 1.5) / 3.0)
        self.assertEqual(benchlib.spread([0.0, 0.0]), 0.0)


class CompareTest(unittest.TestCase):
    SPEC = {
        "end_to_end": [
            {"name": "p50_ms", "unit": "ms", "better": "lower",
             "bound": 0.1},
            {"name": "queries_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.1},
        ],
        "per_layer": [
            {"name": "storage.page_faults", "unit": "count",
             "better": "lower"},
        ],
    }

    @staticmethod
    def runs(workload, trace, values_by_seed, **stamp):
        base = {"nproc": 4, "build_type": "RelWithDebInfo",
                "natix_obs": "ON", "seconds": 10.0,
                "host_speed": [50.0, 52.0]}
        base.update(stamp)
        return {(workload, trace): [
            (seed, dict(base, seed=seed), values)
            for seed, values in values_by_seed.items()]}

    def test_rows_per_workload_and_metric(self):
        parent = self.runs("xdoc-axes", 0, {
            s: {"p50_ms": 5.0 + 0.01 * s, "queries_per_s": 100.0 + s}
            for s in range(10)})
        change = self.runs("xdoc-axes", 0, {
            s: {"p50_ms": 4.0 + 0.01 * s, "queries_per_s": 101.0 + s}
            for s in range(10)})
        rows, warnings = compare.compare(self.SPEC, parent, change)
        self.assertEqual(warnings, [])
        verdicts = {(r[0], r[1]): r[-1] for r in rows}
        self.assertEqual(verdicts[("xdoc-axes", "p50_ms")],
                         benchlib.IMPROVED)
        self.assertEqual(verdicts[("xdoc-axes", "queries_per_s")],
                         benchlib.NO_WORSE)

    def test_incomparable_stamps_warn(self):
        parent = self.runs("serve-mix", 1, {1: {"storage.page_faults": 0}})
        change = self.runs("serve-mix", 1, {1: {"storage.page_faults": 0}},
                           nproc=8)
        _, warnings = compare.compare(self.SPEC, parent, change)
        self.assertEqual(len(warnings), 1)
        self.assertIn("nproc", warnings[0])

    def test_host_speed_mismatch_warns(self):
        parent = self.runs("xdoc-axes", 0, {1: {"p50_ms": 5.0}})
        same = self.runs("xdoc-axes", 0, {1: {"p50_ms": 5.0}},
                         host_speed=[49.0, 51.0])
        slow = self.runs("xdoc-axes", 0, {1: {"p50_ms": 9.0}},
                         host_speed=[25.0, 26.0])
        self.assertEqual(compare.compare(self.SPEC, parent, same)[1], [])
        _, warnings = compare.compare(self.SPEC, parent, slow)
        self.assertEqual(len(warnings), 1)
        self.assertIn("host_speed", warnings[0])

    def test_plain_p99_from_the_stamp_is_judged_too(self):
        spec = {"end_to_end": [{"name": "p99_ms", "unit": "ms",
                                "better": "lower", "bound": 0.1}],
                "per_layer": []}
        stamp = {"highest_supported_percentile": 99.9}
        parent = self.runs("serve-mix", 0, {
            s: {"p99_ms": 5.0} for s in range(10)},
            p99_plain_ms=6.0, **stamp)
        # A tail regression in part of each run: the slice median holds,
        # the plain p99 does not.
        change = self.runs("serve-mix", 0, {
            s: {"p99_ms": 5.0} for s in range(10)},
            p99_plain_ms=9.0, **stamp)
        rows, _ = compare.compare(spec, parent, change)
        verdicts = {r[1]: r[-1] for r in rows}
        self.assertEqual(verdicts, {"p99_ms": benchlib.NO_WORSE,
                                    "p99_plain_ms": benchlib.WORSE})

    def test_short_run_leaves_p99_unresolved(self):
        spec = {"end_to_end": [{"name": "p99_ms", "unit": "ms",
                                "better": "lower", "bound": 0.1}],
                "per_layer": []}
        parent = self.runs("xdoc-axes", 0, {
            s: {"p99_ms": 5.0} for s in range(10)},
            highest_supported_percentile=99.9)
        change = self.runs("xdoc-axes", 0, {
            s: {"p99_ms": 4.0} for s in range(10)},
            highest_supported_percentile=99.9)
        rows, warnings = compare.compare(spec, parent, change)
        self.assertEqual((rows[0][-1], warnings), (benchlib.IMPROVED, []))
        # One change run had too few ops for ten samples beyond its p99.
        change[("xdoc-axes", 0)][3][1]["highest_supported_percentile"] = 98.0
        rows, warnings = compare.compare(spec, parent, change)
        self.assertEqual(rows[0][-1], benchlib.UNRESOLVED)
        self.assertEqual(len(warnings), 1)


if __name__ == "__main__":
    unittest.main()
