"""Oracle arithmetic against hand-computed values.

Run with: python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import exact  # noqa: E402
import oracles  # noqa: E402
from corpus import Job, Shape  # noqa: E402


class ExactTest(unittest.TestCase):
    def test_leibniz_det(self):
        self.assertEqual(exact.leibniz_det([]), 1)
        self.assertEqual(exact.leibniz_det([[2, 1], [7, 4]]), 1)
        self.assertEqual(exact.leibniz_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]), -3)
        self.assertEqual(exact.leibniz_det([[Fraction(1, 2), 0], [0, 4]]), 2)

    def test_box_ehrhart(self):
        # (4m + 1)(5m + 1)(6m + 1) = 120 m^3 + 74 m^2 + 15 m + 1
        self.assertEqual(exact.box_ehrhart([4, 5, 6]), [1, 15, 74, 120])

    def test_simplex_count(self):
        # 2 * standard triangle: 6 lattice points; 3 * it: 28.
        self.assertEqual(exact.simplex_count(2, 2, 1), 6)
        self.assertEqual(exact.simplex_count(2, 2, 3), 28)
        self.assertEqual(exact.simplex_count(3, 8, 0), 1)

    def test_cross_polytope(self):
        # conv(+-e_i) in R^5 has volume 2^5/5! = 4/15; its level-1 slices are
        # the 4-dimensional cross-polytope (2^4/4! = 2/3) over y = 0 and points.
        self.assertEqual(exact.cross_volume(5, 1), Fraction(4, 15))
        self.assertEqual(exact.cross_slice_sum(5, 1, 1), Fraction(2, 3))
        # 2 * octahedron sliced at level 1: squares of diagonal 2(2 - |y|).
        self.assertEqual(exact.cross_slice_sum(3, 2, 1), Fraction(2 * 4 + 2 * 1 * 2, 1))

    def test_box_slice_sum(self):
        # Sides (1, 2, 1, 3) at level 1: two slices of volume 2 * 1 * 3.
        self.assertEqual(exact.box_slice_sum([1, 2, 1, 3], 1), 12)

    def test_simplex_volume_and_det(self):
        tri = [[0, 0], [2, 0], [0, 3]]
        self.assertEqual(exact.simplex_volume(tri), 3)
        self.assertEqual(exact.signed_simplex_det(tri), 6)
        self.assertEqual(exact.signed_simplex_det([tri[1], tri[0], tri[2]]), -6)

    def test_generality(self):
        self.assertEqual(exact.generality_level_of_simplex([[0, 0], [1, 1], [2, 3]]), 2)
        # Two vertices share their first coordinate: not even 1-general.
        self.assertEqual(exact.generality_level_of_simplex([[0, 0], [0, 1], [2, 3]]), 0)


class OracleTest(unittest.TestCase):
    box = Shape("box00", "box", [[0, 0], [2, 0], [0, 3], [2, 3]], {"sides": [2, 3]})

    def no_sibling(self, *args):
        return None

    def test_box_ehrhart_accepts_closed_form_and_rejects_other(self):
        job = Job("box00", "ehrhart", ("--method", "interpolate"))
        good = {"coefficients": [1, 5, 6]}  # (2m + 1)(3m + 1)
        bad = {"coefficients": [1, 5, 7]}
        self.assertIsNone(oracles.check(job, self.box, (0, good), self.no_sibling))
        self.assertIn("closed form", oracles.check(job, self.box, (0, bad), self.no_sibling))

    def test_exit_code_and_missing_output(self):
        job = Job("box00", "volume")
        self.assertEqual(oracles.check(job, self.box, (1, None), self.no_sibling), "exit code 1")
        self.assertEqual(oracles.check(job, self.box, (None, None), self.no_sibling),
                         "exit code None")
        self.assertIsNone(oracles.check(job, self.box, (0, {"volume": 6}), self.no_sibling))

    def test_verify_mainvol_must_agree_with_check(self):
        job = Job("box00", "verify-mainvol", ("--k", "1"))
        check = (0, {"integrality_level": 0, "generality_level": 0})
        report = {"hypotheses_hold": True, "lhs": 6, "rhs": 6}
        sibling = lambda command, *args: check if command == "check" else None  # noqa: E731
        reason = oracles.check(job, self.box, (0, report), sibling)
        self.assertEqual(reason, "exit code disagrees with check's levels")

    def test_simplex_identities(self):
        verts = [[0, 0, 0], [1, 2, 4], [2, 1, 3], [-1, 3, 1]]
        shape = Shape("gen3_00", "gen3_", verts)
        rhs = exact.signed_simplex_det(verts) / 6
        value = str(rhs) if rhs.denominator != 1 else int(rhs)
        payload = {
            "signed_decomposition": {"lhs": value, "rhs": value,
                                     "details": {"determinant_ratio_sum": value}},
            # d = 3: arity 0 with excess 0 and 1, arity 1 with monomials 1, z, z^2.
            "vanishing_sums": [{"sum": 0, "holds": True}] * 5,
            "all_hold": True,
        }
        job = Job("gen3_00", "simplex-identities")
        self.assertIsNone(oracles.check(job, shape, (0, payload), self.no_sibling))
        payload["vanishing_sums"] = payload["vanishing_sums"][:4]
        self.assertIsNotNone(oracles.check(job, shape, (0, payload), self.no_sibling))


if __name__ == "__main__":
    unittest.main()
