"""Tests of the benchmark's reductions (stats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import stats  # noqa: E402


class ExactPercentile(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        values = [7.0, 1.0, 3.5, 9.25, 2.0, 8.0, 4.0, 6.5, 5.0, 10.0, 0.5]
        deciles = statistics.quantiles(values, n=10, method="inclusive")
        self.assertAlmostEqual(stats.quantile(values, 0.5),
                               statistics.median(values))
        self.assertAlmostEqual(stats.quantile(values, 0.9), deciles[8])
        self.assertAlmostEqual(stats.quantile(values, 0.1), deciles[0])

    def test_interpolates_between_order_statistics(self):
        self.assertAlmostEqual(stats.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(stats.quantile([10, 20], 0.9), 19.0)
        self.assertEqual(stats.quantile([42], 0.9), 42)
        self.assertEqual(stats.quantile([], 0.5), 0.0)

    def test_resolves_a_ten_percent_shift(self):
        # Log2 buckets put all of these in one bucket; exact
        # percentiles move with the data.
        base = [100 + i * 0.5 for i in range(200)]
        slower = [v * 1.1 for v in base]
        for q in (0.5, 0.9):
            ratio = stats.quantile(slower, q) / stats.quantile(base, q)
            self.assertAlmostEqual(ratio, 1.1)


class DigestCheck(unittest.TestCase):
    REFS = {"0.0": ("rec-a", "res-a"), "0.1": ("rec-b", "res-b")}

    def test_matching_records_pass(self):
        observed = [[0, "0.0", "rec-a", "res-a"], [0, "0.1", "rec-b", "res-b"],
                    [1, "0.0", "rec-a", "res-a"]]
        self.assertEqual(stats.failed_ops(observed, self.REFS, False), set())

    def test_one_corrupted_record_fails_its_op(self):
        observed = [[0, "0.0", "rec-a", "res-a"], [1, "0.1", "rec-X", "res-b"],
                    [2, "0.0", "rec-a", "res-a"]]
        self.assertEqual(stats.failed_ops(observed, self.REFS, False), {1})

    def test_traced_runs_compare_results_only(self):
        # perf adds keys: the record digest differs, the model
        # results digest must not.
        observed = [[0, "0.0", "rec-with-perf", "res-a"]]
        self.assertEqual(stats.failed_ops(observed, self.REFS, True), set())
        observed = [[0, "0.0", "rec-a", "res-X"]]
        self.assertEqual(stats.failed_ops(observed, self.REFS, True), {0})

    def test_record_without_reference_fails(self):
        observed = [[3, "9.0", "rec-a", "res-a"]]
        self.assertEqual(stats.failed_ops(observed, self.REFS, False), {3})

    def test_pre_failed_ops_are_kept(self):
        self.assertEqual(stats.failed_ops([], self.REFS, False, [4, 5]), {4, 5})

    def test_committed_digests_override_offline(self):
        refs = stats.references({"0.0": ["rec-a", "res-a"]},
                                {"0.0": ["stale", "stale"],
                                 "1.0": ["rec-c", "res-c"]})
        self.assertEqual(refs, {"0.0": ("rec-a", "res-a"),
                                "1.0": ("rec-c", "res-c")})


class Ledger(unittest.TestCase):
    TERMS = [["sim.dispatch_ns", 1000, 50.0], ["noc.send_ns", 2000, 10.0],
             ["coherence.miss_ns", 100, 300.0]]

    def test_layers_that_add_up_have_no_residual(self):
        self.assertAlmostEqual(stats.ledger_residual(100000.0, self.TERMS), 0.0)

    def test_residual_is_relative_to_wall(self):
        self.assertAlmostEqual(stats.ledger_residual(80000.0, self.TERMS), 0.25)
        self.assertAlmostEqual(stats.ledger_residual(125000.0, self.TERMS),
                               0.2)

    def test_negative_remainder_is_flagged(self):
        self.assertEqual(stats.negative_costs(self.TERMS), [])
        terms = self.TERMS + [["coherence.miss_ns", 50, -12.0]]
        self.assertEqual(stats.negative_costs(terms), ["coherence.miss_ns"])

    def test_costs_are_count_weighted_across_apps(self):
        terms = [["workload.next_ns", 300, 100.0],
                 ["workload.next_ns", 100, 200.0]]
        self.assertAlmostEqual(stats.layer_costs(terms)["workload.next_ns"],
                               125.0)

    def test_per_layer_resolution(self):
        report = {
            "ledger": {"wall_ns": 100000.0, "terms": self.TERMS},
            "samples": {"http.post_us": [1.0, 2.0, 3.0, 4.0, 5.0],
                        "system.run_ms": [3.0, 1.0, 2.0]},
            "values": {"service.store_hit_ratio": 1.0},
        }
        got = stats.per_layer(report, [
            "system.ledger_residual", "sim.dispatch_ns", "http.post_us_p50",
            "http.post_us_p90", "system.run_ms", "service.store_hit_ratio",
            "service.queue_wait_ms_p50"])
        self.assertAlmostEqual(got["system.ledger_residual"], 0.0)
        self.assertAlmostEqual(got["sim.dispatch_ns"], 50.0)
        self.assertAlmostEqual(got["http.post_us_p50"], 3.0)
        self.assertAlmostEqual(got["http.post_us_p90"], 4.6)
        self.assertAlmostEqual(got["system.run_ms"], 2.0)
        self.assertEqual(got["service.store_hit_ratio"], 1.0)
        self.assertEqual(got["service.queue_wait_ms_p50"], 0.0)


if __name__ == "__main__":
    unittest.main()
