"""Acceptance suite: every criterion checks exact equalities (tolerance 0) and
prints one PASS/FAIL line (run with ``pytest -s`` to see them as they happen).
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from latticeface import (
    HypothesisError,
    Polytope,
    Sublattice,
    count_points,
    ehrhart_from_projections,
    ehrhart_from_slices,
    ehrhart_interpolated,
    generality_level,
    integrality_level,
    lin_lattice,
    normalized_volume,
    power_sum,
    reduce_to_full_general,
    saturate,
    slice_volume_sum,
    split,
    verify_codim1_identity,
    verify_signed_decomposition,
    verify_vanishing_sum,
    verify_volume_slice_identity,
)
from latticeface.linalg import det, hnf, matmul, rank
from factories import (
    certified_pool,
    embed_with_graph_coordinate,
    moment_simplex,
    random_integral_simplex,
)

P1 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 6, 0), (2, 2, 2)])
P2 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 3, 0), (2, 1, 5)])
SQUARE = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {summary}")
                raise
            print(f"PASS criterion {number}: {summary}")

        return wrapper

    return decorate


@criterion(1, "worked example: Ehrhart polynomial and slice polynomials")
def test_criterion_1_worked_example():
    expected = (1, 4, 10, 8)  # 8m^3 + 10m^2 + 4m + 1, constant first
    assert ehrhart_interpolated(P1).coefficients == expected
    assert ehrhart_from_slices(P1, 1).coefficients == expected
    assert ehrhart_from_slices(P1, 0).coefficients == expected
    with pytest.raises(HypothesisError):
        ehrhart_from_projections(P1)  # P1 is not fully integral

    slice_polys = [
        ehrhart_interpolated(P1.slice_at(y)).coefficients
        for y in P1.project(1).lattice_points()
    ]
    assert slice_polys == [(1,), (1, 2, 1), (1, 4, 4), (1, 4, 3), (1,)]
    total = [Fraction(0)] * 3
    for poly in slice_polys:
        for j, c in enumerate(poly):
            total[j] += c
    assert total == [5, 10, 8]  # 8m^2 + 10m + 5


@criterion(2, "volume identity on the worked example, with all slice volumes")
def test_criterion_2_mainvol_example():
    report = verify_volume_slice_identity(P1, 2)
    assert report.hypotheses_hold
    assert report.lhs == 8 and report.rhs == 8 and report.equal

    proj = P1.project(2)
    kernel = split(Sublattice.standard(3), 2).kernel
    interior = [y for y in proj.lattice_points() if proj.classify_point(y) == "interior"]
    volumes = [normalized_volume(P1.slice_at(y), kernel) for y in interior]
    assert volumes == [
        1, 1, 2, 1, 1,
        Fraction(4, 5), Fraction(3, 5), Fraction(2, 5), Fraction(1, 5),
    ]


@criterion(3, "necessity counterexamples with witnesses")
def test_criterion_3_counterexamples():
    square = verify_volume_slice_identity(SQUARE, 1)
    assert not square.hypotheses_hold
    assert square.lhs == 1 and square.rhs == 2 and not square.equal
    assert "not in 1-general position" in square.witness

    p2 = verify_volume_slice_identity(P2, 2)
    assert not p2.hypotheses_hold
    assert p2.lhs == 10 and p2.rhs == 8 and not p2.equal
    assert "not 1-integral" in p2.witness
    assert "(0, 0, 0)" in p2.witness and "(2, 1, 5)" in p2.witness


@criterion(4, "slice formula equals brute-force counts on 100 random instances")
def test_criterion_4_formula_vs_counts():
    rng = random.Random(20260810)
    pool = certified_pool(rng, 100, max_dim=4)
    assert len(pool) >= 100
    nontrivial = 0
    for poly, level in pool:
        counts = [count_points(poly, m) for m in range(1, poly.dim + 2)]
        for k in range(level + 1):
            formula = ehrhart_from_slices(poly, k)
            assert [formula(m) for m in range(1, poly.dim + 2)] == counts
            if k >= 1:
                nontrivial += 1
    assert nontrivial >= 60  # plenty of genuinely sliced cases


@criterion(5, "fully integral closed form on 100 random simplices")
def test_criterion_5_fully_integral_simplices():
    rng = random.Random(55_2026)
    dims = [1] * 10 + [2] * 45 + [3] * 35 + [4] * 10
    for d in dims:
        poly = moment_simplex(rng, d, spread=2 if d == 4 else 4)
        closed = ehrhart_from_projections(poly)
        assert closed == ehrhart_interpolated(poly)
        assert closed.coefficients[0] == 1
        codim1 = verify_codim1_identity(poly)
        assert codim1.hypotheses_hold and codim1.equal


@criterion(6, "signed decomposition identities on 50 random simplices")
def test_criterion_6_signed_identities():
    rng = random.Random(66_2026)
    dims = [1] * 8 + [2] * 21 + [3] * 21
    for d in dims:
        simplex = random_integral_simplex(rng, d, box=5)
        report = verify_signed_decomposition(simplex)
        assert report.equal
        for arity in range(max(d - 1, 0)):
            for excess in range(d - 1 - arity):
                for exponents in itertools.product(range(3), repeat=arity):
                    if sum(exponents) > 2:
                        continue

                    def monomial(*zs, _e=exponents):
                        out = Fraction(1)
                        for z, e in zip(zs, _e):
                            out *= z**e
                        return out

                    assert verify_vanishing_sum(simplex, arity, excess, monomial).equal


@criterion(7, "power sums: reflection identity and literal summation")
def test_criterion_7_power_sums():
    rng = random.Random(77_2026)
    for k in range(1, 11):
        for _ in range(50):
            x = Fraction(rng.randint(-60, 60), rng.randint(1, 16))
            assert power_sum(k, x) == (-1) ** (k + 1) * power_sum(k, -x - 1)
    for k in range(7):
        for n in range(51):
            assert power_sum(k, n) == sum(i**k for i in range(1, n + 1))


@criterion(8, "lattice algebra contracts: HNF, saturation, splitting")
def test_criterion_8_lattice_algebra():
    rng = random.Random(88_2026)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        h, u = hnf(matrix)
        assert matmul(u, matrix) == h
        assert abs(det(u)) == 1
        again, _ = hnf(h)
        assert again == h

    for _ in range(60):
        dim = rng.randint(1, 5)
        r = rng.randint(1, dim)
        while True:
            span = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                for _ in range(r)
            ]
            if rank(span) == r:
                break
        lattice = saturate(span)
        assert saturate(lattice.basis) == lattice
        for k in range(dim + 1):
            parts = split(lattice, k)
            assert parts.projection.rank + parts.kernel.rank == lattice.rank


@criterion(9, "reduction preserves volume and slice sums on 25 instances")
def test_criterion_9_reduction_invariance():
    rng = random.Random(99_2026)
    instances = []
    while len(instances) < 25:
        d = rng.randint(2, 3)
        base = moment_simplex(rng, d, spread=3)
        poly = embed_with_graph_coordinate(rng, base) if rng.random() < 0.5 else base
        k = rng.randint(1, d)
        instances.append((poly, k))
    for poly, k in instances:
        lattice = lin_lattice(poly)
        vol = normalized_volume(poly, lattice)
        svol = slice_volume_sum(poly, k, lattice)
        _, image = reduce_to_full_general(poly, k)
        standard = Sublattice.standard(image.ambient_dim)
        assert image.dim == image.ambient_dim == poly.dim
        assert integrality_level(image).max_level >= k - 1
        assert generality_level(image).max_level == image.dim
        assert normalized_volume(image, standard) == vol
        assert slice_volume_sum(image, k, standard) == svol
