"""Self-tests of the benchmark's statistics (stats.py).

    python3 reqbench/test_stats.py
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianQuartiles(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7.5]), 7.5)

    def test_median_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_module(self):
        v = [0.91, 1.2, 1.05, 0.99, 1.4, 1.01, 0.97, 1.1, 1.0, 1.03]
        q1, q2, q3 = stats.quartiles(v)
        self.assertEqual([q1, q2, q3], statistics.quantiles(v, n=4))
        self.assertAlmostEqual(stats.iqr_share(v), (q3 - q1) / q2)

    def test_iqr_share_of_constant_is_zero(self):
        self.assertEqual(stats.iqr_share([2.0] * 10), 0.0)


class Percentile(unittest.TestCase):
    def test_linear_interpolation(self):
        v = list(range(1, 11))  # 1..10
        self.assertEqual(stats.percentile(v, 0), 1)
        self.assertEqual(stats.percentile(v, 100), 10)
        self.assertEqual(stats.percentile(v, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(v, 90), 9.1)

    def test_bad_p_raises(self):
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_ten_beyond_rule(self):
        # p90 of n distinct samples has >= 10 samples above it from
        # min_samples_for(90) on, and not one sample earlier; 100 always do.
        n = stats.min_samples_for(90)
        self.assertGreaterEqual(stats.samples_beyond(list(range(n)), 90), 10)
        self.assertLess(stats.samples_beyond(list(range(n - 1)), 90), 10)
        self.assertGreaterEqual(stats.samples_beyond(list(range(100)), 90), 10)
        self.assertLessEqual(n, 100)

    def test_ties_do_not_count_as_beyond(self):
        v = [1.0] * 80 + [2.0] * 20  # the cut lands on the tied 2.0s
        self.assertEqual(stats.samples_beyond(v, 90), 0)

    def test_p50_rule_needs_fewer_samples(self):
        self.assertLess(stats.min_samples_for(50), stats.min_samples_for(90))


class FailureCounting(unittest.TestCase):
    def test_every_failure_kind_counts(self):
        f = {"rejected": 1, "timed_out": 2, "exceptions": 3,
             "missed_target": 4, "dead_workers": 5}
        self.assertEqual(stats.failed_count(f), 15)
        self.assertAlmostEqual(stats.failed_frac(f, 30), 0.5)

    def test_missing_kinds_are_zero_and_extra_keys_ignored(self):
        self.assertEqual(stats.failed_count({"missed_target": 2, "other": 9}), 2)
        self.assertEqual(stats.failed_frac({}, 10), 0.0)

    def test_nothing_attempted_raises(self):
        with self.assertRaises(ValueError):
            stats.failed_frac({}, 0)


class SpanSelfTime(unittest.TestCase):
    # (id, parent, req, name, start_ns, end_ns)
    SPANS = [
        (1, 0, 1, "request", 0, 100),
        (2, 1, 1, "service.submit", 0, 10),
        (3, 1, 1, "multigrid.cycle", 20, 60),
        (4, 1, 1, "multigrid.cycle", 50, 80),   # overlaps the previous one
        (5, 3, 1, "inner", 30, 40),
        (6, 0, 0, "amg.rap", 0, 7),             # setup span, no request
    ]

    def test_self_time_subtracts_union_of_children(self):
        st = stats.self_times(self.SPANS)
        # children of 1 cover [0,10] + [20,80] = 70 of 100
        self.assertEqual(st[1], 30)
        self.assertEqual(st[3], 30)   # 40 minus inner's 10
        self.assertEqual(st[4], 30)
        self.assertEqual(st[6], 7)

    def test_children_outside_parent_are_not_subtracted(self):
        st = stats.self_times([(1, 0, 1, "request", 0, 10),
                               (2, 1, 1, "net.route", 20, 25)])
        self.assertEqual(st[1], 10)
        self.assertEqual(st[2], 5)

    def test_summary_per_request_and_coverage(self):
        s = stats.SpanSummary(self.SPANS)
        self.assertEqual(s.requests, 1)
        self.assertAlmostEqual(s.per_request("multigrid.cycle"), 60e-9)
        self.assertAlmostEqual(s.per_span("multigrid.cycle"), 30e-9)
        self.assertEqual(s.per_request("absent"), 0.0)
        # setup spans are outside every request
        self.assertEqual(s.per_request("amg.rap"), 0.0)
        self.assertAlmostEqual(s.total("amg.rap", everywhere=True), 7e-9)
        # layers: submit 10 + cycles 60 + inner 10 = 80 ns of a 100 ns request
        self.assertAlmostEqual(s.coverage(), 0.8)

    def test_coverage_is_the_median_per_request_ratio(self):
        spans = [(1, 0, 1, "request", 0, 100), (2, 1, 1, "a", 0, 90),
                 (3, 0, 2, "request", 0, 1000), (4, 3, 2, "a", 0, 500),
                 (5, 0, 3, "request", 0, 100), (6, 5, 3, "a", 0, 100)]
        self.assertAlmostEqual(stats.SpanSummary(spans).coverage(), 0.9)

    def test_coverage_without_requests_is_zero(self):
        self.assertEqual(stats.SpanSummary([]).coverage(), 0.0)

    def test_covered_merges_and_clips(self):
        self.assertEqual(stats._covered([(0, 5), (3, 8), (10, 12)], 2, 11), 7)
        self.assertEqual(stats._covered([], 0, 1), 0)

    def test_iqr_share_of_zero_median_is_infinite(self):
        self.assertTrue(math.isinf(stats.iqr_share([0.0, 0.0, 0.0, 1.0])))


if __name__ == "__main__":
    unittest.main()
