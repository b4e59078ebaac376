import itertools
import random
from fractions import Fraction

import pytest

from latticeface.lattice import Sublattice, extend_basis, saturate, split
from latticeface.linalg import det, hnf_basis, identity, rank
from oracles import integer_combinations_in_box, integer_points_of_span_in_box


def test_saturate_half_diagonal():
    # Oracle: integer points of span{(1/2, 1/2)} in a box are multiples of (1, 1).
    pts = integer_points_of_span_in_box([[Fraction(1, 2), Fraction(1, 2)]], 2, 4)
    assert set(pts) == {(t, t) for t in range(-4, 5)}
    lat = saturate([[Fraction(1, 2), Fraction(1, 2)]])
    assert lat.basis == ((1, 1),)


def test_saturate_unit_vector():
    lat = saturate([[1, 0]])
    assert lat.basis == ((1, 0),)


def test_saturate_already_saturated():
    span = [[1, 0, 1], [0, 1, 1]]
    pts = integer_points_of_span_in_box(span, 3, 3)
    lat = saturate(span)
    assert lat.basis == ((1, 0, 1), (0, 1, 1))
    for p in pts:
        assert lat.contains(p)


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ValueError):
        saturate([[1, 1], [2, 2]])


def test_saturate_idempotent_and_index_is_integer():
    rng = random.Random(5)
    for _ in range(30):
        dim = rng.randint(1, 4)
        r = rng.randint(1, dim)
        while True:
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                    for _ in range(r)]
            if rank(rows) == r:
                break
        lat = saturate(rows)
        assert saturate(lat.basis) == lat
        cleared = Sublattice.from_rows(dim, [
            [int(x * _lcm(row)) for x in row] for row, _ in
            [(row, None) for row in rows]
        ])
        idx = cleared.index_in(lat)
        assert idx.denominator == 1 and idx >= 1


def _lcm(row):
    out = 1
    for x in row:
        d = Fraction(x).denominator
        g = _gcd(out, d)
        out = out * d // g
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_split_standard_lattice():
    lat = Sublattice.standard(2)
    sp = split(lat, 1)
    assert sp.projection.basis == ((1,),)
    assert sp.kernel.basis == ((0, 1),)


def test_split_skew_lattice():
    # Oracle: integer combinations of (2,1),(0,3) with first coordinate zero
    # are multiples of (0,3); first coordinates form 2Z.
    combos = integer_combinations_in_box([[2, 1], [0, 3]], 6)
    kernel_pts = {p for p in combos if p[0] == 0}
    assert kernel_pts == {(0, 3 * t) for t in range(-6, 7)}
    firsts = {p[0] for p in combos}
    assert {x for x in firsts if -12 <= x <= 12} == {2 * t for t in range(-6, 7)}

    lat = Sublattice.from_rows(2, [[2, 1], [0, 3]])
    sp = split(lat, 1)
    assert sp.projection.basis == ((2,),)
    assert sp.kernel.basis == ((0, 3),)
    assert sp.projection.rank + sp.kernel.rank == lat.rank


def test_split_diagonal_saturation():
    lat = saturate([[1, 1, 1]])
    sp = split(lat, 2)
    assert sp.projection.basis == ((1, 1),)
    assert sp.kernel.rank == 0


def test_split_rank_additivity_random():
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(1, 5)
        nrows = rng.randint(1, dim)
        rows = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(nrows)]
        lat = Sublattice.from_rows(dim, rows)
        for k in range(dim + 1):
            sp = split(lat, k)
            assert sp.projection.rank + sp.kernel.rank == lat.rank
            # Integer row operations on the adapted basis reproduce the basis.
            assert hnf_basis([list(r) for r in sp.adapted_basis]) == [list(r) for r in lat.basis]


def test_split_out_of_range():
    with pytest.raises(ValueError):
        split(Sublattice.standard(2), 3)


def test_extend_basis_axis():
    lat = Sublattice.from_rows(2, [[1, 0]])
    ext = extend_basis(lat)
    assert ext[0] == [1, 0]
    assert abs(det(ext)) == 1


def test_extend_basis_diagonal():
    lat = Sublattice.from_rows(2, [[1, 1]])
    ext = extend_basis(lat)
    assert ext[0] == [1, 1]
    assert abs(det(ext)) == 1


def test_extend_basis_full():
    assert extend_basis(Sublattice.standard(3)) == identity(3)


def test_extend_basis_rejects_unsaturated():
    with pytest.raises(ValueError):
        extend_basis(Sublattice.from_rows(2, [[2, 0]]))


def test_extend_basis_random_saturated():
    rng = random.Random(3)
    for _ in range(30):
        dim = rng.randint(1, 5)
        r = rng.randint(1, dim)
        while True:
            rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(r)]
            if rank(rows) == r:
                break
        lat = saturate(rows)
        ext = extend_basis(lat)
        assert abs(det(ext)) == 1
        assert [tuple(row) for row in ext[:r]] == list(lat.basis)


def test_contains_and_coordinates():
    lat = Sublattice.from_rows(2, [[2, 1], [0, 3]])
    assert lat.contains((2, 4))
    assert not lat.contains((1, 0))
    assert not lat.contains((Fraction(1, 2), 0))
    assert lat.coordinates((2, 4)) == [Fraction(1), Fraction(1)]
    assert lat.coordinates((5, 7)) is not None  # in span over Q


def test_points_of_the_wrong_length_are_rejected():
    # A rank-2 lattice in Z^3 and the rank-0 lattice: a point must have D entries.
    for lat in (Sublattice.from_rows(3, [[1, 0, 2], [0, 1, 1]]), Sublattice(3, ())):
        for point in ((1, 2, 0, 7), (1, 2), ()):
            with pytest.raises(ValueError, match="point dimension mismatch"):
                lat.coordinates(point)
            with pytest.raises(ValueError, match="point dimension mismatch"):
                lat.contains(point)


def _member_by_coordinates(lat, point) -> bool:
    coords = lat.coordinates(point)
    return coords is not None and all(c.denominator == 1 for c in coords)


def test_contains_matches_membership_read_from_coordinates():
    # Hermite bases (from_rows), bases given as they are (not in Hermite form),
    # rank-deficient lattices and the rank-0 lattice; integer points of a box,
    # half-integer and third-integer points, and integer combinations of the
    # basis, which always belong.
    rng = random.Random(83)
    lattices = [Sublattice(2, ((0, 1), (2, 1))), Sublattice(3, ()), Sublattice.standard(2)]
    while len(lattices) < 40:
        dim = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
        if rank(rows) < len(rows):
            continue
        lattices += [Sublattice(dim, tuple(map(tuple, rows))), Sublattice.from_rows(dim, rows)]
    members = 0
    for lat in lattices:
        dim = lat.ambient_dim
        points = list(itertools.product(range(-4, 5), repeat=dim))
        points += [tuple(Fraction(x, rng.choice((2, 3))) for x in p) for p in rng.choices(points, k=20)]
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in lat.basis]
            points.append(tuple(sum(c * row[j] for c, row in zip(coeffs, lat.basis))
                                for j in range(dim)))
        for point in points:
            assert lat.contains(point) == _member_by_coordinates(lat, point)
            members += lat.contains(point)
        with pytest.raises(ValueError, match="point dimension mismatch"):
            lat.contains((0,) * (dim + 1))
    assert members >= 500
    skew = Sublattice(2, ((0, 1), (2, 1)))
    assert skew.contains((2, 0)) and skew.contains((-4, 3))
    assert not skew.contains((1, 0)) and not skew.contains((Fraction(1, 2), 0))
    assert skew.contains((Fraction(4, 2), Fraction(0)))
