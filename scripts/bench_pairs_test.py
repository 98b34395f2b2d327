#!/usr/bin/env python3
"""Checks bench_pairs.py's statistics on fixed inputs.

    python3 scripts/bench_pairs_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_pairs  # noqa: E402  (path set above)

METRICS = {
    "op_ms_p90": {"better": "lower", "bound": 0.25},
    "rss_mb": {"better": "lower", "bound": 0.1},
    "hit_frac": {"better": "higher", "bound": 0.1},
    "core.decide_busy_s": {"better": "lower"},
}


class Quartiles(unittest.TestCase):
    def test_linear_interpolation_between_order_statistics(self):
        # Positions (n - 1) * {0.25, 0.5, 0.75} = 2.25, 4.5, 6.75 of the sorted data.
        q1, median, q3 = bench_pairs.quartiles([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        self.assertAlmostEqual(q1, 3.25)
        self.assertAlmostEqual(median, 5.5)
        self.assertAlmostEqual(q3, 7.75)

    def test_single_value(self):
        self.assertEqual(bench_pairs.quartiles([4.0]), (4.0, 4.0, 4.0))


class Summarize(unittest.TestCase):
    PARENT = [5.0, 5.2, 4.8, 5.1, 4.9, 5.3, 4.7, 5.0, 5.2, 4.8]

    def test_clear_gain_wins_every_pair_and_clears_the_iqr(self):
        change = [v * 0.5 for v in self.PARENT]
        stats = bench_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(stats["change_wins"], 10)
        self.assertAlmostEqual(stats["parent"]["median"], 5.0)
        self.assertAlmostEqual(stats["change"]["median"], 2.5)
        self.assertAlmostEqual(stats["change_vs_parent"], -0.5)
        self.assertAlmostEqual(stats["parent_iqr"], 5.175 - 4.825)
        self.assertTrue(stats["median_gap_exceeds_parent_iqr"])
        self.assertTrue(stats["improved"])

    def test_eight_wins_are_not_a_gain(self):
        change = [v * 0.5 for v in self.PARENT]
        change[0] = 9.0
        change[1] = 9.0
        stats = bench_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(stats["change_wins"], 8)
        self.assertFalse(stats["improved"])

    def test_gap_inside_the_parent_iqr_is_not_a_gain(self):
        change = [v - 0.05 for v in self.PARENT]
        stats = bench_pairs.summarize(self.PARENT, change, "lower")
        self.assertEqual(stats["change_wins"], 10)
        self.assertFalse(stats["median_gap_exceeds_parent_iqr"])
        self.assertFalse(stats["improved"])

    def test_higher_is_better_metrics_win_upwards(self):
        change = [v * 2 for v in self.PARENT]
        stats = bench_pairs.summarize(self.PARENT, change, "higher")
        self.assertEqual(stats["change_wins"], 10)
        self.assertTrue(stats["improved"])
        self.assertEqual(bench_pairs.summarize(change, self.PARENT, "higher")["change_wins"], 0)

    def test_unequal_series_are_refused(self):
        with self.assertRaises(ValueError):
            bench_pairs.summarize([1.0, 2.0], [1.0], "lower")


class Verdict(unittest.TestCase):
    def summary(self, p90_factor, rss_factor, hit_factor):
        parent = [5.0, 5.2, 4.8, 5.1, 4.9, 5.3, 4.7, 5.0, 5.2, 4.8]
        return {
            "surge": {
                "op_ms_p90": bench_pairs.summarize(
                    parent, [v * p90_factor for v in parent], "lower"),
                "rss_mb": bench_pairs.summarize(
                    parent, [v * rss_factor for v in parent], "lower"),
                "hit_frac": bench_pairs.summarize(
                    parent, [v * hit_factor for v in parent], "higher"),
            }
        }

    def test_met_claim_and_metrics_within_bounds_pass(self):
        out = bench_pairs.verdict(self.summary(0.6, 1.05, 1.0), METRICS,
                                  ("surge", "op_ms_p90"))
        self.assertTrue(out["pass"])
        self.assertTrue(out["claim"]["met"])
        self.assertEqual(out["regressions"], [])
        row = out["workloads"]["surge"]["op_ms_p90"]
        self.assertEqual(row["change_wins"], "10/10")
        self.assertAlmostEqual(row["change_vs_parent"], -0.4)

    def test_metric_beyond_its_bound_fails(self):
        out = bench_pairs.verdict(self.summary(0.6, 1.2, 1.0), METRICS)
        self.assertFalse(out["pass"])
        self.assertEqual(out["regressions"], ["surge:rss_mb"])

    def test_higher_is_better_bound_counts_a_drop(self):
        out = bench_pairs.verdict(self.summary(1.0, 1.0, 0.8), METRICS)
        self.assertEqual(out["regressions"], ["surge:hit_frac"])

    def test_metrics_without_a_bound_are_not_judged(self):
        summary = self.summary(0.6, 1.0, 1.0)
        parent = [1.0, 1.1, 0.9, 1.0]
        summary["surge"]["core.decide_busy_s"] = bench_pairs.summarize(
            parent, [v * 3 for v in parent], "lower")
        out = bench_pairs.verdict(summary, METRICS)
        self.assertTrue(out["pass"])
        self.assertNotIn("core.decide_busy_s", out["workloads"]["surge"])

    def test_unmet_claim_fails(self):
        out = bench_pairs.verdict(self.summary(0.99, 1.0, 1.0), METRICS,
                                  ("surge", "op_ms_p90"))
        self.assertFalse(out["claim"]["met"])
        self.assertFalse(out["pass"])


class Parsing(unittest.TestCase):
    OUTPUT = "\n".join([
        "# perfbench workload=surge seed=1 seconds=1 trace=0",
        "# runs=3 work: steps{decision=831} placement_solves=815 flows_peak=44",
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
        '{"op_ms_p90": {"value": 2.5, "unit": "ms"}}}',
        "",
    ])

    def test_work_line_drops_the_run_count(self):
        self.assertEqual(bench_pairs.work_of(self.OUTPUT),
                         "steps{decision=831} placement_solves=815 flows_peak=44")
        self.assertEqual(bench_pairs.work_of(self.OUTPUT.replace("runs=3", "runs=7")),
                         bench_pairs.work_of(self.OUTPUT))

    def test_traced_work_line_matches_the_untraced_one(self):
        traced = self.OUTPUT.replace("runs=3 work:", "runs=25 + 1 traced work:")
        self.assertEqual(bench_pairs.work_of(traced), bench_pairs.work_of(self.OUTPUT))

    def test_missing_work_line_is_an_error(self):
        with self.assertRaises(ValueError):
            bench_pairs.work_of(self.OUTPUT.replace("work:", "done:"))

    def test_result_is_the_last_line(self):
        result = bench_pairs.result_of(self.OUTPUT)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["op_ms_p90"]["value"], 2.5)


if __name__ == "__main__":
    unittest.main()
