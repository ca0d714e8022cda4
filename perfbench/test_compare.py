"""Tests of compare mode's verdict rules (python3 perfbench/run.py selftest)."""

import unittest

import compare


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, med, q3 = compare.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_relative_to_median(self):
        self.assertAlmostEqual(compare.spread([10, 10, 10, 10]), 0.0)
        self.assertAlmostEqual(compare.spread([9, 10, 10, 11]), 0.15)


class Verdicts(unittest.TestCase):
    BASE = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100]

    def test_clear_gain_is_better(self):
        new = [v * 1.05 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "higher", 0.1), "better")
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1), "same")

    def test_lower_is_better_direction(self):
        new = [v * 0.95 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "lower", 0.1), "better")

    def test_gain_needs_nine_of_ten_pairs(self):
        # Eight wins, two losses: the medians differ, but no claim.
        new = [v * 1.05 for v in self.BASE[:8]] + [v * 0.99 for v in self.BASE[8:]]
        self.assertEqual(compare.verdict(self.BASE, new, "higher", 0.1), "same")

    def test_gain_must_exceed_base_spread(self):
        base = [90, 110, 95, 105, 92, 108, 97, 103, 94, 106]
        new = [v + 1 for v in base]  # wins every pair, by less than the spread
        self.assertEqual(compare.verdict(base, new, "higher", 0.25), "same")

    def test_loss_beyond_bound_is_worse(self):
        new = [v * 0.8 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "higher", 0.1), "worse")

    def test_loss_within_bound_is_same(self):
        new = [v * 0.95 for v in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, new, "higher", 0.1), "same")

    def test_noisy_metric_is_unresolved(self):
        noisy = [60, 140, 80, 120, 70, 130, 90, 110, 100, 100]
        self.assertEqual(compare.verdict(self.BASE, noisy, "higher", 0.1), "unresolved")

    def test_noisy_but_every_run_better_is_not_unresolved(self):
        base = [60, 140, 80, 120, 70, 130, 90, 110, 100, 100]
        new = [141 + i for i in range(10)]
        self.assertNotEqual(compare.verdict(base, new, "higher", 0.1), "unresolved")


if __name__ == "__main__":
    unittest.main()
