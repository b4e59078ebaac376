"""The lattice walker behind ``Polytope.lattice_points`` and
``Polytope.lattice_point_counts``, checked against enumeration and against the
box-scan oracle, its interior counts against the enumerated points that
``classify_point`` puts in the relative interior, and its cell budget against
an independent cell count."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from latticeface.linalg import dot
from latticeface.polytope import BudgetExceeded, Polytope, _split_levels
from oracles import count_by_box_scan


def _random_polytopes(rng: random.Random, count: int):
    """Small integer and rational polytopes, full-dimensional or not, some
    affinely embedded in one more dimension; small enough for box scans."""
    for case in range(count):
        d = rng.randint(1, 3)
        n = rng.randint(1, d + 3)
        if case % 2:
            pts = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        else:
            pts = [[Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(d)]
                   for _ in range(n)]
        if case % 3 == 2 and d < 3:  # embed by an integer affine map
            lift = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d + 1)]
            shift = [rng.randint(-1, 1) for _ in range(d + 1)]
            pts = [[dot(row, p) + t for row, t in zip(lift, shift)] for p in pts]
            d += 1
        yield Polytope(d, pts)


def test_counts_match_enumeration_and_box_oracle():
    rng = random.Random(71)
    for poly in _random_polytopes(rng, 24):
        for m in (1, 2):
            points = poly.lattice_points(scale=m)
            assert points == sorted(points)
            if m == 1:
                assert len(points) == count_by_box_scan(poly.vertices)
            for k in range(poly.ambient_dim + 1):
                counts = poly.lattice_point_counts(scale=m, k=k)
                assert counts == Counter(pt[:k] for pt in points)
                assert 0 not in counts.values()


def _interior_prefixes(poly: Polytope, m: int, k: int) -> Counter:
    """Prefixes of the lattice points of mP that ``classify_point`` puts in
    the relative interior, enumerated on the dilate's own H-representation."""
    dilate = poly.dilate(m)
    return Counter(
        pt[:k] for pt in dilate.lattice_points() if dilate.classify_point(pt) == "interior"
    )


def test_interior_counts_match_classified_enumeration():
    rng = random.Random(73)
    polytopes = list(_random_polytopes(rng, 24))
    polytopes += [
        Polytope(3, [(1, -2, 0)]),  # a lattice point: its own relative interior
        Polytope(2, [(Fraction(1, 2), 1)]),  # a point off the lattice
        Polytope(2, [(0, 0), (2, 4)]),  # an embedded segment
        Polytope(3, [(0, 0, 0), (2, 0, 1), (0, 2, 1), (2, 2, 2)]),  # an embedded square
        Polytope(0, [()]),
        Polytope(3, []),
    ]
    interior_points = 0
    for poly in polytopes:
        for m in (1, 2):
            for k in range(poly.ambient_dim + 1):
                counts = poly.lattice_point_counts(scale=m, k=k, interior=True)
                assert counts == _interior_prefixes(poly, m, k)
                assert 0 not in counts.values()
            interior_points += sum(counts.values())
    assert interior_points >= 100


def test_counts_of_the_point_of_r0_and_of_the_empty_polytope():
    point = Polytope(0, [()])
    assert point.lattice_points(scale=3) == [()]
    assert point.lattice_point_counts(scale=3) == {(): 1}
    empty = Polytope(3, [])
    assert empty.lattice_points() == []
    for k in range(4):
        assert empty.lattice_point_counts(k=k) == {}
    # A nonempty polytope without lattice points has no prefixes either.
    assert Polytope(2, [(Fraction(1, 3), 0), (Fraction(2, 3), 5)]).lattice_point_counts(k=1) == {}


def test_fibres_wider_than_one_run():
    # The walker splits a fibre into runs of at most 4096 sibling nodes.
    triangle = Polytope(2, [(0, 0), (9000, 0), (0, 3)])
    points = triangle.lattice_points()
    assert len(points) == 9001 + 6001 + 3001 + 1
    assert points == sorted(points)
    for k in range(3):
        assert triangle.lattice_point_counts(k=k) == Counter(pt[:k] for pt in points)


def test_counts_reject_bad_arguments():
    square = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    for k in (-1, 3):
        with pytest.raises(ValueError, match="prefix length"):
            square.lattice_point_counts(k=k)
    with pytest.raises(ValueError, match="scale"):
        square.lattice_point_counts(scale=0)


def test_unbounded_fibre_is_a_runtime_error_naming_the_coordinate():
    # Coordinate 1 has an upper bound but no lower one.
    systems = [[((1,), 4, 1), ((-1,), 0, 1)], [((0, 1), 4, 1), ((1, 0), 4, 1)]]
    with pytest.raises(RuntimeError, match="coordinate 1 is unbounded"):
        _split_levels(systems)


def _cells_visited(poly: Polytope) -> int:
    """Cells the walk over P visits: every lattice point of each projection
    to the first j coordinates, j = 1..D, counted by the box-scan oracle."""
    return sum(
        count_by_box_scan([v[:j] for v in poly.vertices])
        for j in range(1, poly.ambient_dim + 1)
    )


def _raises_budget(monkeypatch, budget: int, call) -> bool:
    """Whether ``call`` exceeds the cell budget ``budget``, which is set for
    that call alone, so it caps no oracle."""
    with monkeypatch.context() as scoped:
        scoped.setenv("LATTICEFACE_CELL_BUDGET", str(budget))
        try:
            call()
        except BudgetExceeded as exc:
            assert str(exc).startswith("lattice enumeration exceeded the cell budget of ")
            return True
    return False


def test_counting_and_enumeration_exceed_the_budget_together(monkeypatch):
    rng = random.Random(72)
    polytopes = list(_random_polytopes(rng, 12))
    polytopes.append(Polytope(3, [(0, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 3)]))
    for poly in polytopes:
        cells = _cells_visited(poly)
        for budget in (cells - 2, cells - 1, cells, cells + 1):
            if budget < 0:  # rejected as invalid when the walk starts
                for call in (poly.lattice_points, poly.lattice_point_counts):
                    with pytest.raises(ValueError, match="LATTICEFACE_CELL_BUDGET must be a nonnegative"):
                        _raises_budget(monkeypatch, budget, call)
                continue
            over = budget < cells
            assert _raises_budget(monkeypatch, budget, poly.lattice_points) == over
            for k in range(poly.ambient_dim + 1):
                assert _raises_budget(monkeypatch, budget, lambda: poly.lattice_point_counts(k=k)) == over


def _interior_cells_visited(poly: Polytope, m: int) -> int:
    """Cells an interior walk over mP visits: the relative interior lattice
    points of each projection of mP to the first j coordinates, j = 1..D."""
    return sum(
        sum(_interior_prefixes(poly.project(j), m, 0).values())
        for j in range(1, poly.ambient_dim + 1)
    )


def test_interior_walks_keep_the_cell_budget(monkeypatch):
    rng = random.Random(74)
    polytopes = list(_random_polytopes(rng, 12))
    polytopes += [Polytope(3, [(0, 0, 0), (5, 0, 0), (0, 4, 0), (0, 0, 3)]), Polytope(0, [()])]
    walked = 0
    for poly in polytopes:
        for m in (1, 2):
            cells = _interior_cells_visited(poly, m)
            walked += cells > 0
            for budget in {0, cells - 1, cells} - {-1}:
                for k in range(poly.ambient_dim + 1):
                    assert _raises_budget(
                        monkeypatch, budget, lambda: poly.lattice_point_counts(scale=m, k=k, interior=True)
                    ) == (budget < cells)
    assert walked >= 10
