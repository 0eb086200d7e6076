"""Tests of the results aggregation and the compare rule.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import suite

BENCH = {
    "end_to_end": [
        {"name": "sim_rate", "unit": "s/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def results(rates, setups=None, failed=0, pairing=None, run_seconds=25):
    setups = setups or [1.0] * len(rates)
    runs = [
        {"seed": i + 1, "metrics": {"sim_rate": r, "setup_s": s}}
        for i, (r, s) in enumerate(zip(rates, setups))
    ]
    return {
        "provenance": {"run_seconds": run_seconds, "pairing": pairing},
        "workloads": {"w": {"attempted": 10 * len(runs), "failed": failed, "runs": runs}},
    }


PAIRING = {"id": "1-abc", "order": {}}


def paired(base_rates, change_rates):
    return results(base_rates, pairing=PAIRING), results(change_rates, pairing=PAIRING)


STEADY = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def verdicts(base, change):
    rows, ok = suite.compare(base, change, BENCH)
    return {metric: verdict for _, metric, verdict, _, _ in rows}, ok


class CompareTest(unittest.TestCase):
    def test_identical_runs_are_unchanged(self):
        v, ok = verdicts(results(STEADY), results(STEADY))
        self.assertEqual(v, {"sim_rate": "unchanged", "setup_s": "unchanged"})
        self.assertTrue(ok)

    def test_synthetic_regression_is_flagged(self):
        v, ok = verdicts(results(STEADY), results([r * 0.8 for r in STEADY]))
        self.assertEqual(v["sim_rate"], "regressed")
        self.assertFalse(ok)

    def test_regression_of_a_lower_is_better_metric(self):
        v, ok = verdicts(results(STEADY), results(STEADY, setups=[1.5] * 10))
        self.assertEqual(v["setup_s"], "regressed")
        self.assertFalse(ok)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        v, ok = verdicts(results(noisy), results([r * 0.95 for r in noisy]))
        self.assertEqual(v["sim_rate"], "unresolved")
        self.assertTrue(ok)

    def test_regression_wider_than_the_spread_is_not_hidden(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        v, ok = verdicts(results(noisy), results([r * 0.7 for r in noisy]))
        self.assertEqual(v["sim_rate"], "regressed")
        self.assertFalse(ok)

    def test_consistent_paired_gain_is_improved(self):
        v, _ = verdicts(*paired(STEADY, [r * 1.2 for r in STEADY]))
        self.assertEqual(v["sim_rate"], "improved")

    def test_gain_needs_interleaved_pairs(self):
        v, _ = verdicts(results(STEADY), results([r * 1.2 for r in STEADY]))
        self.assertEqual(v["sim_rate"], "unchanged")
        other = dict(PAIRING, id="2-abc")
        v, _ = verdicts(results(STEADY, pairing=PAIRING),
                        results([r * 1.2 for r in STEADY], pairing=other))
        self.assertEqual(v["sim_rate"], "unchanged")

    def test_gain_needs_ten_pairs(self):
        v, _ = verdicts(*paired(STEADY[:5], [r * 1.2 for r in STEADY[:5]]))
        self.assertEqual(v["sim_rate"], "unchanged")

    def test_different_run_lengths_are_refused(self):
        code = suite.report_compare(results(STEADY), results(STEADY, run_seconds=10), BENCH)
        self.assertEqual(code, 2)

    def test_higher_failed_share_rejects(self):
        _, ok = verdicts(results(STEADY), results(STEADY, failed=1))
        self.assertFalse(ok)


class StatsTest(unittest.TestCase):
    def test_order_stats_match_the_quartile_rule(self):
        s = suite.order_stats([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((s["median"], s["min"], s["max"], s["n"]), (5.5, 1, 10, 10))
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], 5.5 / 5.5)

    def test_pairs_alternate_which_side_runs_first(self):
        order = suite.pair_order([4, 5, 6, 7])
        self.assertEqual([s for s, _ in order], [4, 5, 6, 7])
        self.assertEqual([o[0] for _, o in order], ["base", "change", "base", "change"])
        self.assertTrue(all(sorted(o) == ["base", "change"] for _, o in order))

    def test_seed_lists(self):
        self.assertEqual(suite.parse_seeds("3-5"), [3, 4, 5])
        self.assertEqual(suite.parse_seeds("7,1"), [7, 1])


if __name__ == "__main__":
    unittest.main()
