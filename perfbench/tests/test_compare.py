"""Verdicts of the compare command on hand-made run sets.

Run with: python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import compare  # noqa: E402


def runs(values, metric="jobs_per_s"):
    return [{"seed": i, "metrics": {metric: {"value": v}}} for i, v in enumerate(values)]


class VerdictTest(unittest.TestCase):
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def verdict(self, change, higher=True, bound=0.1):
        a, b = runs(self.base), runs(change)
        return compare.verdict(self.base, change, compare.pairs(a, b, "jobs_per_s"), bound, higher)

    def test_better_needs_nine_tenths_of_pairs_and_more_than_the_spread(self):
        self.assertEqual(self.verdict([v * 1.05 for v in self.base]), "better")
        mixed = [v * 1.05 for v in self.base[:8]] + [9.0, 9.0]
        self.assertEqual(self.verdict(mixed), "same")

    def test_worse_beyond_the_bound(self):
        self.assertEqual(self.verdict([v * 0.85 for v in self.base]), "worse")
        self.assertEqual(self.verdict([v * 0.95 for v in self.base]), "same")
        # For a lower-is-better metric the same numbers are a gain.
        self.assertEqual(self.verdict([v * 0.85 for v in self.base], higher=False), "better")

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 7.5, 12.5, 9.0, 11.0, 10.0]
        self.assertEqual(self.verdict(noisy), "unresolved")
        self.assertEqual(self.verdict([v + 20 for v in noisy]), "better")


if __name__ == "__main__":
    unittest.main()
