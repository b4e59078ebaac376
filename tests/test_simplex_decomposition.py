import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import factorial, prod
from types import SimpleNamespace

import pytest

from latticeface import (
    HypothesisError,
    Polytope,
    Sublattice,
    determinant_ratios,
    normalized_volume,
    power_sum,
    simplex_slice_volume,
    slice_volume_sum,
    verify_signed_decomposition,
    verify_simplex_identities,
    verify_vanishing_sum,
)
from latticeface.simplex_decomposition import _chain_sum, _chain_table, power_sum_coefficients
from factories import moment_simplex, random_integral_simplex
from oracles import (
    cofactor_det,
    permutation_sign,
    permutation_table,
    staircase_sums_by_permutations,
    vanishing_sum_by_permutations,
)

TRIANGLE = Polytope(2, [(0, 0), (4, 0), (3, 6)])
P1 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 6, 0), (2, 2, 2)])


def test_determinant_ratios_interval():
    assert determinant_ratios([(2,), (7,)], (0,)) == [5]


def test_determinant_ratios_triangle():
    # Oracle: cofactor determinants of the augmented matrices.
    x1 = cofactor_det([[1, 0], [1, 3]])
    y1 = cofactor_det([[1]])
    x2 = cofactor_det([[1, 0, 0], [1, 4, 0], [1, 3, 6]])
    y2 = cofactor_det([[1, 0], [1, 4]])
    assert (x1 / y1, x2 / y2) == (3, 6)
    assert determinant_ratios(TRIANGLE.vertices, (0, 1)) == [3, 6]


def test_determinant_ratios_p1():
    ratios = determinant_ratios(P1.vertices, (0, 1, 2))
    assert len(ratios) == 3
    assert all(r != 0 for r in ratios)


def test_determinant_ratios_degenerate():
    flat = [(0, 0), (0, 1), (1, 1)]  # first coordinates collide
    with pytest.raises(HypothesisError):
        determinant_ratios(flat, (0, 1))


def test_power_sum_values():
    assert power_sum(1, 3) == 6
    assert power_sum(2, 4) == 30
    assert power_sum(2, -4) == -power_sum(2, 3) == -14


def test_power_sum_structure():
    from latticeface.simplex_decomposition import power_sum_coefficients

    for k in range(7):
        coeffs = power_sum_coefficients(k)
        assert coeffs[0] == 0  # constant term
        assert coeffs[-1] == Fraction(1, k + 1)  # leading coefficient
        assert len(coeffs) == k + 2  # degree k + 1


def test_power_sum_literal_sums():
    for k in range(7):
        for n in range(51):
            assert power_sum(k, n) == sum(i**k for i in range(1, n + 1))


def test_power_sum_reflection():
    rng = random.Random(19)
    for k in range(1, 11):
        for _ in range(50):
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            assert power_sum(k, x) == (-1) ** (k + 1) * power_sum(k, -x - 1)


def test_simplex_slice_volume_triangle():
    # Slice-length oracle: vertical slices at x = 1, 2, 3 have lengths 2, 4, 6.
    lengths = []
    for x in (1, 2, 3):
        s = TRIANGLE.slice_at((x,))
        lo = min(v[1] for v in s.vertices)
        hi = max(v[1] for v in s.vertices)
        lengths.append(hi - lo)
    assert lengths == [2, 4, 6]
    assert simplex_slice_volume(TRIANGLE) == 12


def test_simplex_slice_volume_interval():
    for n in (1, 2, 7):
        assert simplex_slice_volume(Polytope(1, [(0,), (n,)])) == n


def test_simplex_slice_volume_p1():
    assert simplex_slice_volume(P1) == 8


def test_simplex_slice_volume_matches_slice_sum_and_volume():
    rng = random.Random(37)
    for d in (1, 2, 3):
        for _ in range(4):
            s = random_integral_simplex(rng, d)
            lat = Sublattice.standard(d)
            expected = normalized_volume(s, lat)
            assert simplex_slice_volume(s) == expected
            if d > 1:
                assert slice_volume_sum(s, 1) == expected


def test_simplex_slice_volume_rejects_non_simplex():
    square = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        simplex_slice_volume(square)


def test_simplex_slice_volume_rejects_rational_vertices():
    s = Polytope(2, [(0, 0), (1, 0), (Fraction(1, 2), 3)])
    with pytest.raises(HypothesisError):
        simplex_slice_volume(s)


def test_verify_signed_decomposition_interval():
    report = verify_signed_decomposition(Polytope(1, [(2,), (5,)]))
    assert report.equal
    assert report.lhs == report.rhs == 3


def test_verify_signed_decomposition_triangle():
    report = verify_signed_decomposition(TRIANGLE)
    assert report.equal
    assert abs(report.rhs) == 12
    assert report.details["determinant_ratio_sum"] == report.as_dict()["rhs"]


def test_verify_signed_decomposition_orientation():
    flipped = Polytope(2, [(4, 0), (0, 0), (3, 6)])
    report = verify_signed_decomposition(flipped)
    assert report.equal
    assert abs(report.rhs) == 12


def test_verify_signed_decomposition_random():
    rng = random.Random(53)
    for d in (1, 2, 3):
        for _ in range(4):
            report = verify_signed_decomposition(random_integral_simplex(rng, d))
            assert report.equal


def test_verify_vanishing_sum_triangle():
    report = verify_vanishing_sum(TRIANGLE, 0, 0)
    assert report.equal and report.lhs == 0


def test_verify_vanishing_sum_p1_linear_weight():
    report = verify_vanishing_sum(P1, 1, 0, lambda z1: z1)
    assert report.equal and report.lhs == 0


def test_verify_vanishing_sum_constraint():
    with pytest.raises(ValueError):
        verify_vanishing_sum(TRIANGLE, 1, 0)


def test_verify_vanishing_sum_all_admissible_monomials():
    rng = random.Random(71)
    for d in (2, 3, 4):
        s = moment_simplex(rng, d, spread=3)
        for arity in range(d - 1):
            for excess in range(d - 1 - arity):
                for exponents in itertools.product(range(3), repeat=arity):
                    if sum(exponents) > 2:
                        continue

                    def monomial(*zs, _e=exponents):
                        out = Fraction(1)
                        for z, e in zip(zs, _e):
                            out *= z**e
                        return out

                    report = verify_vanishing_sum(s, arity, excess, monomial)
                    assert report.equal


def test_simplex_slice_volume_negative_orientation():
    # Swapping two vertices makes det negative; the slice volume is |det|/d!.
    for simplex in (TRIANGLE, P1):
        verts = simplex.vertices
        flipped = Polytope(simplex.ambient_dim, [verts[1], verts[0], *verts[2:]])
        det_value = cofactor_det([[1, *v] for v in flipped.vertices])
        assert det_value < 0
        assert simplex_slice_volume(flipped) == -det_value / factorial(flipped.dim)


def _explicit_sweep_triples(d):
    return [
        (arity, excess, exponents)
        for arity in range(d - 1)
        for excess in range(d - 1 - arity)
        for exponents in itertools.product(range(3), repeat=arity)
        if sum(exponents) <= 2
    ]


def _monomial(exponents):
    def weight(*zs):
        out = Fraction(1)
        for z, e in zip(zs, exponents):
            out *= z**e
        return out

    return weight


def test_simplex_identity_sweep_lists_every_admissible_triple():
    rng = random.Random(89)
    for d in (1, 2, 3, 4, 5):
        signed, sweep = verify_simplex_identities(moment_simplex(rng, d, spread=3))
        assert signed.equal
        listed = [
            (r.details["arity"], r.details["excess"], tuple(r.details["monomial_exponents"]))
            for r in sweep
        ]
        assert listed == _explicit_sweep_triples(d)
        assert all(r.equal and r.lhs == 0 for r in sweep)


def test_simplex_identity_sweep_matches_single_checks():
    rng = random.Random(97)
    for d in (2, 3, 4):
        for _ in range(2):
            s = random_integral_simplex(rng, d, box=4)
            signed, sweep = verify_simplex_identities(s)
            assert signed == verify_signed_decomposition(s)
            for report in sweep:
                arity, excess = report.details["arity"], report.details["excess"]
                exponents = report.details["monomial_exponents"]
                single = verify_vanishing_sum(s, arity, excess, _monomial(exponents))
                assert replace(report, details={"arity": arity, "excess": excess}) == single


def test_simplex_identity_sweep_checks_hypotheses():
    square = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        verify_simplex_identities(square)
    with pytest.raises(HypothesisError):
        verify_simplex_identities(Polytope(2, [(0, 0), (1, 0), (Fraction(1, 2), 3)]))
    with pytest.raises(HypothesisError):
        verify_simplex_identities(Polytope(2, [(0, 0), (0, 1), (1, 1)]))


def _mixed_weight(*zs):
    """Not a monomial, and it reads every ratio it is given."""
    return sum((i + 1) * z + 3 * z**2 for i, z in enumerate(zs)) - 5


def test_subset_sums_match_permutation_oracle():
    rng = random.Random(113)
    weight = _mixed_weight  # any function of the leading ratios vanishes

    for d in (1, 2, 3, 4, 5):
        for _ in range(2):
            s = random_integral_simplex(rng, d, box=4)
            table = permutation_table(s)
            signed_sum, ratio_sum = staircase_sums_by_permutations(table)
            signed, sweep = verify_simplex_identities(s)
            assert signed.lhs == signed_sum
            assert Fraction(signed.details["determinant_ratio_sum"]) == ratio_sum
            for report in sweep:
                arity, excess = report.details["arity"], report.details["excess"]
                expected = vanishing_sum_by_permutations(
                    table, arity, excess, _monomial(report.details["monomial_exponents"]))
                assert report.lhs == expected == 0
            for arity in range(d - 1):
                for excess in range(d - 1 - arity):
                    expected = vanishing_sum_by_permutations(table, arity, excess, weight)
                    assert verify_vanishing_sum(s, arity, excess, weight).lhs == expected == 0
            if d >= 4:
                expected = vanishing_sum_by_permutations(table, 2, 0, lambda a, b: a + 3 * b**2)
                assert verify_vanishing_sum(s, 2, 0, lambda a, b: a + 3 * b**2).lhs == expected == 0


def test_chain_sums_match_permutation_sums_on_arbitrary_ratios(monkeypatch):
    # A simplex's own sums vanish wherever the public functions allow them,
    # so arbitrary ratios per subset pin the evaluator's signs and arguments.
    # The weight is a product that reads every ratio it gets: a sum of terms
    # in one ratio each would cancel between the orders of a prefix.  At
    # d = 3 the first level's ratios have the pairwise different denominators
    # 2, 3 and 4, so the level's common denominator 12 is none of them.
    from latticeface import simplex_decomposition

    def weight(*zs):
        return prod((z + i + 1) ** (i + 1) for i, z in enumerate(zs))

    rng = random.Random(131)
    values = {}

    def arbitrary_ratio(_ints, chosen, _den):
        fresh = Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 4))
        return values.setdefault(tuple(chosen), fresh)

    monkeypatch.setattr(simplex_decomposition, "_ratio", arbitrary_ratio)
    nonzero = 0
    for d in (1, 2, 3, 4, 5):
        values.clear()
        if d == 3:
            values.update({(0,): Fraction(1, 2), (1,): Fraction(-7, 3), (2,): Fraction(5, 4)})
        chains = _chain_table(SimpleNamespace(integer_vertices=(1, [])), d)
        if d == 3:
            assert chains.lcms[1] == 12
        table = [
            (permutation_sign(perm), [values[tuple(sorted(perm[:k]))] for k in range(1, d + 1)])
            for perm in itertools.permutations(range(d))
        ]
        signed_sum, ratio_sum = staircase_sums_by_permutations(table)
        # z^(1-d) times the power-sum polynomial, as a Laurent polynomial
        power_sums = {i + 1 - d: c for i, c in enumerate(power_sum_coefficients(d - 1))}
        staircase = _chain_sum(chains, 0, lambda: 1, power_sums)
        assert staircase / factorial(d - 1) == signed_sum
        assert Fraction(chains.tails[0], prod(chains.lcms) * factorial(d)) == ratio_sum
        for arity in range(d):
            for excess in range(-1, 3):
                expected = vanishing_sum_by_permutations(table, arity, excess, weight)
                got = _chain_sum(chains, arity, weight, {-excess: 1})
                assert got == expected
                nonzero += expected != 0
    assert nonzero >= 45  # of 60; with excess 0 the (arity + 1)-th ratio is unread
