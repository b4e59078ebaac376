import gc
import itertools
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest

from latticeface.linalg import dot, primitive_row, rref
from latticeface.polytope import BudgetExceeded, HRep, Polytope, cell_budget
from factories import certified_pool, point_mix
from oracles import (
    count_by_box_scan,
    cut_by_fractions,
    faces_by_closure,
    hull_by_subset_scan,
    in_hull,
    rank_by_fractions,
    rref_by_fractions,
)

P1 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 6, 0), (2, 2, 2)])
P2 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 3, 0), (2, 1, 5)])
SQUARE = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = Polytope(2, [(0, 0), (4, 0), (3, 6)])


def test_affine_hull_segment():
    seg = Polytope(3, [(1, 1, 0), (1, 1, 1)])
    assert seg.base_point == (1, 1, 0)
    assert seg.lin_basis == ((Fraction(0), Fraction(0), Fraction(1)),)
    assert seg.dim == 1


def test_affine_hull_full_dim():
    assert len(P1.lin_basis) == 3


def test_affine_hull_point():
    pt = Polytope(2, [(3, 5)])
    assert pt.lin_basis == ()
    assert pt.dim == 0


def test_hrep_triangle():
    h = TRIANGLE.hrep
    assert len(h.equalities) == 0
    assert len(h.inequalities) == 3
    centroid = (Fraction(7, 3), Fraction(2))
    assert TRIANGLE.classify_point(centroid) == "interior"
    for v in TRIANGLE.vertices:
        assert TRIANGLE.contains(v)
        assert TRIANGLE.classify_point(v) == "boundary"


def test_hrep_unit_segment():
    seg = Polytope(1, [(0,), (1,)])
    h = seg.hrep
    assert len(h.equalities) == 0
    assert sorted(h.inequalities) == [((-1,), 0), ((1,), 1)]


def test_hrep_segment_in_r3():
    seg = Polytope(3, [(1, 1, 0), (1, 1, 1)])
    h = seg.hrep
    assert len(h.equalities) == 2
    assert len(h.inequalities) == 2
    assert seg.contains((1, 1, Fraction(1, 2)))
    assert not seg.contains((1, 0, 0))


def test_redundant_points_are_dropped():
    p = Polytope(2, [(0, 0), (2, 0), (0, 2), (1, 1), (2, 0), (Fraction(1, 2), Fraction(1, 2))])
    assert frozenset(p.vertices) == {(0, 0), (2, 0), (0, 2)}
    # (1, 1) lies on the slanted edge, the interior point too: neither is extreme.


def test_faces_tetrahedron():
    tet = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(tet.faces(0)) == 4
    assert len(tet.faces(1)) == 6
    assert len(tet.faces(2)) == 4
    assert len(tet.faces(3)) == 1


def test_faces_square():
    assert len(SQUARE.faces(1)) == 4
    assert len(SQUARE.faces(0)) == 4


def test_faces_p1_vertices():
    verts = P1.faces(0)
    assert [P1.face_vertices(f)[0] for f in verts] == list(P1.vertices)
    assert len(P1.vertices) == 4


def test_euler_relation():
    rng = random.Random(21)
    for _ in range(10):
        dim = rng.randint(2, 4)
        pts = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim + 3)]
        p = Polytope(dim, pts)
        if p.dim < 2:
            continue
        euler = sum((-1) ** ell * len(p.faces(ell)) for ell in range(p.dim))
        assert euler == 1 - (-1) ** p.dim
    # The scale the README promises: 20 points in dimension 6.
    rng = random.Random(20)
    p = Polytope(6, [[rng.randint(-10, 10) for _ in range(6)] for _ in range(20)])
    assert p.dim == 6
    assert sum((-1) ** ell * len(p.faces(ell)) for ell in range(6)) == 0


def test_project_p1():
    assert P1.project(1) == Polytope(1, [(0,), (4,)])
    assert P1.project(2) == Polytope(2, [(0, 0), (4, 0), (3, 6)])
    assert P1.project(3) is P1


def test_project_composes():
    for k2 in range(4):
        for k1 in range(k2 + 1):
            assert P1.project(k2).project(k1) == P1.project(k1)


def test_projections_of_a_projection_are_the_projections_of_p():
    poly = Polytope(3, P1.vertices)  # no projection built yet
    assert poly.project(2).project(1) is poly.project(1)
    assert poly.project(1).project(0) is poly.project(2).project(0) is poly.project(0)


def test_projections_are_freed_with_p_without_the_cycle_collector():
    poly = Polytope(3, P1.vertices)
    kept = poly.project(2)
    assert kept.project(1) is poly.project(1)
    probes = [weakref.ref(q) for q in (poly, poly.project(1), poly.project(0))]
    vertices = poly.project(1).vertices
    gc.disable()
    try:
        del poly
        assert [p() for p in probes] == [None, None, None]
        assert kept.project(1).vertices == vertices  # built afresh from kept
        assert kept.project(1) is kept.project(1)
    finally:
        gc.enable()


def test_slice_p1_over_11():
    s = P1.slice_at((1, 1))
    assert s == Polytope(3, [(1, 1, 0), (1, 1, 1)])


def test_slice_p1_at_zero():
    s = P1.slice_at((0,))
    assert s == Polytope(3, [(0, 0, 0)])
    assert s.dim == 0


def test_slice_outside_is_empty():
    s = P1.slice_at((17, 0))
    assert s.is_empty
    assert s.dim == -1
    assert s.lattice_points() == []


def test_slice_subset_and_lattice_point_compat():
    pts = set(P1.lattice_points())
    for y in P1.project(2).lattice_points():
        s = P1.slice_at(y)
        for q in s.lattice_points():
            assert q in pts
        assert {q for q in pts if q[:2] == y} == set(s.lattice_points())


def test_lattice_points_interval():
    seg = Polytope(1, [(0,), (4,)])
    assert seg.lattice_points() == [(0,), (1,), (2,), (3,), (4,)]


def test_lattice_points_triangle():
    pts = TRIANGLE.lattice_points()
    assert len(pts) == 17
    interior = [p for p in pts if TRIANGLE.classify_point(p) == "interior"]
    boundary = [p for p in pts if TRIANGLE.classify_point(p) == "boundary"]
    assert len(interior) == 9
    assert len(boundary) == 8


def test_lattice_points_cube():
    cube = Polytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert len(cube.lattice_points()) == 8
    assert len(cube.lattice_points(scale=2)) == 27


def test_lattice_points_match_box_oracle():
    rng = random.Random(13)
    for _ in range(15):
        dim = rng.randint(1, 3)
        pts = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim + 2)]
        p = Polytope(dim, pts)
        m = rng.randint(1, 2)
        assert len(p.lattice_points(scale=m)) == count_by_box_scan(p.vertices, m)


def test_lattice_points_lower_dimensional():
    seg = Polytope(3, [(1, 1, 0), (1, 1, 1)])
    assert seg.lattice_points() == [(1, 1, 0), (1, 1, 1)]
    skew = Polytope(2, [(0, 0), (2, 3)])
    assert skew.lattice_points() == [(0, 0), (2, 3)]


def test_hull_matches_subset_scan_oracle():
    rng = random.Random(41)
    for d in range(1, 6):
        for case in range(6):
            ambient, pts = point_mix(rng, d, case)
            poly = Polytope(ambient, pts)
            vertices, inequalities, facet_sets = hull_by_subset_scan(pts)
            assert poly.vertices == tuple(vertices)
            assert list(poly.hrep.inequalities) == inequalities
            assert len(poly.hrep.equalities) == ambient - poly.dim
            assert all(dot(a, p) == b for a, b in poly.hrep.equalities for p in pts)
            if poly.dim >= 1:
                assert [f.vertex_indices for f in poly.faces(poly.dim - 1)] == sorted(
                    tuple(sorted(s)) for s in facet_sets
                )


def test_hull_commutes_with_integer_dilation_and_shift():
    # Polytope(L * P + t) for a positive integer L and an integer shift t: the
    # same vertex order, lin basis and faces, and each row (c, b) becomes the
    # primitive row of (c, L * b + c . t).  lin_basis is the rref of the
    # Fraction difference rows, whatever their denominators.
    rng = random.Random(53)
    for d in range(5):
        for case in range(12):
            ambient, pts = point_mix(rng, d, case)
            poly = Polytope(ambient, pts)
            scale = rng.randint(1, 4)
            shift = [rng.randint(-3, 3) for _ in range(ambient)]
            moved = Polytope(ambient, [[scale * x + t for x, t in zip(p, shift)] for p in pts])
            assert moved.vertices == tuple(
                tuple(scale * x + t for x, t in zip(v, shift)) for v in poly.vertices
            )
            assert moved.lin_basis == poly.lin_basis
            base = poly.base_point
            reduced, pivots = rref([[x - b for x, b in zip(p, base)] for p in poly.vertices])
            assert poly.lin_basis == tuple(tuple(reduced[i]) for i in range(len(pivots)))
            for mapped, rows in ((moved.hrep.inequalities, poly.hrep.inequalities),
                                 (moved.hrep.equalities, poly.hrep.equalities)):
                images = [primitive_row(list(c) + [scale * b + dot(c, shift)]) for c, b in rows]
                assert list(mapped) == sorted((tuple(r[:-1]), r[-1]) for r in images)
            for ell in range(poly.dim + 1):
                assert moved.faces(ell) == poly.faces(ell)


def _oracle_hull(pts):
    """conv(pts) from the oracles alone: vertices, dim, inequalities and edges."""
    vertices, inequalities, _ = hull_by_subset_scan(pts)
    dim = rank_by_fractions([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])
    hull = SimpleNamespace(vertices=vertices, dim=dim, hrep=HRep((), tuple(inequalities)))
    hull.edges = faces_by_closure(hull)[1] if dim >= 1 else []
    return hull


def _assert_piece_is_hull_of(piece, ambient, pts):
    if not pts:
        assert piece.is_empty and piece.dim == -1
        return
    hull = _oracle_hull(pts)
    assert piece.vertices == tuple(hull.vertices)
    assert piece.dim == hull.dim
    assert piece.hrep.inequalities == hull.hrep.inequalities
    normals = [a for a, _ in piece.hrep.equalities]
    assert len(normals) == rank_by_fractions(normals) == ambient - hull.dim
    assert all(dot(a, p) == b for a, b in piece.hrep.equalities for p in pts)
    assert {ell: [f.vertex_indices for f in piece.faces(ell)]
            for ell in range(piece.dim + 1)} == faces_by_closure(hull)
    base = piece.vertices[0]
    reduced, pivots = rref_by_fractions([[x - b for x, b in zip(v, base)] for v in piece.vertices])
    assert piece.lin_basis == tuple(tuple(reduced[i]) for i in range(len(pivots)))


def _cut_value(rng, values):
    """A rational value inside, on or just outside the range of ``values``."""
    lo, hi = min(values), max(values)
    if rng.random() < 0.25:
        return rng.choice(values)
    q = rng.randint(1, 4)
    return Fraction(rng.randint(int(q * lo) - 1, int(q * hi) + 1), q)


def test_cuts_match_the_fraction_formula():
    # axis_cut, intersect_hyperplane and slice_at against the hull oracle of
    # the cut points given by the Fraction formula, on the edges of the hull
    # oracle, for seeded polytopes with integer and rational vertices.
    rng = random.Random(97)
    polys = [Polytope(*point_mix(rng, d, case)) for d in range(1, 5) for case in range(6)]
    polys += [poly for poly, _ in certified_pool(rng, 8, max_dim=4)]
    nonempty = 0
    for poly in polys:
        ambient = poly.ambient_dim
        hull = _oracle_hull(poly.vertices)
        for _ in range(2):
            i = rng.randrange(ambient)
            value = _cut_value(rng, [v[i] for v in poly.vertices])
            pts = cut_by_fractions(hull.vertices, hull.edges, [v[i] - value for v in hull.vertices])
            _assert_piece_is_hull_of(poly.axis_cut(i, value), ambient, pts)
            nonempty += bool(pts)

            normal = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ambient)]
            rhs = _cut_value(rng, [dot(normal, v) for v in poly.vertices])
            vals = [dot(normal, v) - rhs for v in hull.vertices]
            pts = cut_by_fractions(hull.vertices, hull.edges, vals)
            _assert_piece_is_hull_of(poly.intersect_hyperplane(normal, rhs), ambient, pts)

            y = [_cut_value(rng, [v[j] for v in poly.vertices])
                 for j in range(rng.randint(1, ambient))]
            pts = list(hull.vertices)
            for j, yj in enumerate(y):
                step = _oracle_hull(pts)
                pts = cut_by_fractions(step.vertices, step.edges, [v[j] - yj for v in step.vertices])
                if not pts:
                    break
            _assert_piece_is_hull_of(poly.slice_at(y), ambient, pts)
    assert nonempty >= 40


def _chain_cut(rng, piece):
    """A cut of ``piece`` as (cut piece, values of its affine function at the
    vertices): along an axis at a vertex's coordinate (often tangent) or at a
    rational value, or along a hyperplane that holds a facet."""
    kind = rng.randrange(3)
    if kind == 2 and piece.dim >= 1:
        normal, rhs = rng.choice(piece.hrep.inequalities)
        return piece.intersect_hyperplane(normal, rhs), [dot(normal, v) - rhs for v in piece.vertices]
    i = rng.randrange(piece.ambient_dim)
    coords = [v[i] for v in piece.vertices]
    value = rng.choice(coords) if kind == 0 else _cut_value(rng, coords)
    return piece.axis_cut(i, value), [x - value for x in coords]


def test_chained_cuts_inherit_the_incidences_of_a_hull():
    # Cuts of cuts down to points, each built from its parent's incidences:
    # every piece is the hull oracle of the Fraction formula's cut points and
    # equals the hull of its own vertices, and a cut of a piece that lies in
    # the hyperplane is that piece itself.
    rng = random.Random(131)
    polys = [Polytope(*point_mix(rng, d, case)) for d in range(1, 5) for case in range(6)]
    polys += [poly for poly, _ in certified_pool(rng, 6, max_dim=4)]
    polys.append(Polytope(4, list(itertools.product((0, 1), repeat=4))))
    depth = whole = tangent = 0
    for poly in polys:
        piece, hull = poly, _oracle_hull(poly.vertices)
        for _ in range(3 * poly.ambient_dim):
            cut, vals = _chain_cut(rng, piece)
            if not any(vals):
                assert cut is piece
                whole += 1
                continue
            pts = cut_by_fractions(hull.vertices, hull.edges, vals)
            _assert_piece_is_hull_of(cut, poly.ambient_dim, pts)
            rebuilt = Polytope(poly.ambient_dim, cut.vertices)
            assert cut.vertices == rebuilt.vertices and cut.dim == rebuilt.dim
            assert cut.hrep == rebuilt.hrep and cut.lin_basis == rebuilt.lin_basis
            assert all(cut.faces(ell) == rebuilt.faces(ell) for ell in range(cut.dim + 1))
            tangent += min(vals) * max(vals) == 0  # a face of the piece, or a cut through a vertex
            if cut.dim < 1:
                depth += cut.dim == 0
                break
            piece, hull = cut, _oracle_hull(pts)
    assert depth >= 20 and whole >= 5 and tangent >= 30


def test_faces_match_closure_oracle():
    rng = random.Random(7)
    for d in range(6):
        for case in range(12):
            ambient, pts = point_mix(rng, d, case)
            poly = Polytope(ambient, pts)
            expected = faces_by_closure(poly)
            assert {ell: [f.vertex_indices for f in poly.faces(ell)]
                    for ell in range(poly.dim + 1)} == expected
            assert all(f.dim == ell for ell in expected for f in poly.faces(ell))


def test_face_lattices_of_closed_form_families_match_closure_oracle():
    # Faces are found among the facets of the face they came from, and a
    # simplex's facets drop one vertex each: cross-polytopes, cyclic
    # polytopes, boxes and products up to dimension 6.
    def cross(d):
        return [[s * (i == j) for j in range(d)] for i in range(d) for s in (1, -1)]

    def cyclic(n, d):
        return [[t**j for j in range(1, d + 1)] for t in range(n)]

    triangle, square = [[0, 0], [2, 0], [0, 1]], [[0, 0], [1, 0], [0, 1], [1, 1]]
    families = [cross(d) for d in range(2, 7)] + [cyclic(n, d) for n, d in ((7, 4), (8, 5), (9, 6))]
    families += [list(itertools.product(*[range(0, s + 1, s) for s in sides]))
                 for sides in ((1, 2, 3), (1, 1, 2, 2, 3), (1,) * 6)]
    families += [[u + v for u in a for v in b]
                 for a, b in ((triangle, square), (triangle, cross(3)), (cyclic(6, 3), triangle))]
    for pts in families:
        poly = Polytope(len(pts[0]), pts)
        assert poly.dim == poly.ambient_dim
        assert {ell: [f.vertex_indices for f in poly.faces(ell)]
                for ell in range(poly.dim + 1)} == faces_by_closure(poly)


def test_closed_form_hulls():
    cube = Polytope(5, list(itertools.product((0, 1), repeat=5)))
    assert [len(cube.faces(ell)) for ell in range(6)] == [32, 80, 80, 40, 10, 1]
    cross = Polytope(6, [[s * (i == j) for j in range(6)] for i in range(6) for s in (1, -1)])
    assert len(cross.vertices) == 12
    assert cross.hrep.inequalities == tuple(
        (signs, 1) for signs in itertools.product((-1, 1), repeat=6)
    )
    # Cyclic polytopes C(n, 4) on the moment curve are neighborly (f1 = n choose
    # 2) with n(n - 3)/2 facets; Euler's relation then fixes f2.
    for n, f_vector in ((8, [8, 28, 40, 20, 1]), (9, [9, 36, 54, 27, 1])):
        cyclic = Polytope(4, [(t, t**2, t**3, t**4) for t in range(n)])
        assert [len(cyclic.faces(ell)) for ell in range(5)] == f_vector


def test_budget_exceeded():
    big = Polytope(2, [(0, 0), (100, 0), (0, 100), (100, 100)])
    with pytest.raises(BudgetExceeded):
        big.lattice_points(budget=50)


def test_cell_budget_variable_must_be_a_nonnegative_integer(monkeypatch):
    monkeypatch.setenv("LATTICEFACE_CELL_BUDGET", "0")
    assert cell_budget() == 0
    # The grammar is ASCII [0-9]+: int() would read these as 1000, 7, 5 and 3.
    for raw in ("abc", "-1", "", "1.5", "1_000", " 7 ", "+5", "\u0663"):
        monkeypatch.setenv("LATTICEFACE_CELL_BUDGET", raw)
        with pytest.raises(ValueError, match="LATTICEFACE_CELL_BUDGET must be a nonnegative"):
            cell_budget()
    assert cell_budget(override=7) == 7


def test_explicit_cell_budget_must_be_nonnegative(monkeypatch):
    monkeypatch.delenv("LATTICEFACE_CELL_BUDGET", raising=False)
    assert cell_budget(override=0) == 0
    with pytest.raises(ValueError, match="cell budget must be a nonnegative integer, got -1"):
        cell_budget(override=-1)
    for call in (TRIANGLE.lattice_points, TRIANGLE.lattice_point_counts):
        with pytest.raises(ValueError, match="cell budget must be a nonnegative"):
            call(budget=-1)
    with pytest.raises(BudgetExceeded):
        TRIANGLE.lattice_points(budget=0)


def test_classify_points():
    assert TRIANGLE.classify_point((2, 1)) == "interior"
    assert TRIANGLE.classify_point((0, 0)) == "boundary"
    assert TRIANGLE.classify_point((-1, 0)) == "outside"
    seg = Polytope(3, [(1, 1, 0), (1, 1, 1)])
    assert seg.classify_point((1, 1, Fraction(1, 2))) == "interior"
    assert seg.classify_point((1, 1, 0)) == "boundary"
    assert seg.classify_point((0, 0, 0)) == "outside"
    pt = Polytope(2, [(3, 4)])
    assert pt.classify_point((3, 4)) == "interior"
    assert pt.classify_point((3, 5)) == "outside"


def test_contains_matches_hull_oracle():
    rng = random.Random(31)
    for _ in range(10):
        dim = rng.randint(1, 3)
        pts = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim + 2)]
        p = Polytope(dim, pts)
        for _ in range(10):
            q = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(dim)]
            assert p.contains(q) == in_hull(p.vertices, q)


def test_hull_roundtrip_through_lattice_points_of_vertices():
    # The vertex set of the hull of the H-rep solution set is the vertex set.
    rng = random.Random(17)
    for _ in range(10):
        dim = rng.randint(2, 3)
        pts = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim + 3)]
        p = Polytope(dim, pts)
        again = Polytope(dim, p.vertices + p.vertices[::-1])
        assert again == p


def test_dilate_monotone_counts():
    counts = [len(P1.lattice_points(scale=m)) for m in range(1, 4)]
    assert counts == sorted(counts)


def test_zero_dimensional_ambient():
    p = Polytope(0, [()])
    assert p.dim == 0
    assert p.lattice_points() == [()]
    assert p.classify_point(()) == "interior"


def test_empty_polytope_value():
    e = Polytope(2, [])
    assert e.is_empty and e.dim == -1
    assert not e.contains((0, 0))
    assert e.classify_point((0, 0)) == "outside"
    assert e.project(1).is_empty


def test_hull_with_a_non_vertex_first_point():
    # The facet pass runs once, on all input points: a first point that is not
    # a vertex must leave the H-representation and the face lattice unchanged.
    half = Fraction(1, 2)
    cases = [
        (2, [(1, 1), (0, 0), (3, 0), (0, 3)]),                      # interior
        (2, [(1, 0), (0, 0), (2, 0), (0, 2), (2, 2)]),              # on an edge
        (3, [(1, 1, 1), (0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]),
        (3, [(1, 0, 2), (0, 0, 1), (2, 0, 3), (0, 2, 3), (2, 2, 5)]),  # edge, embedded
        (3, [(half, half, 2), (0, 0, 1), (2, 0, 3), (0, 2, 3)]),    # interior, embedded
        (4, [(1, 1, 1, 1), (0, 0, 0, 0), (2, 2, 2, 2)]),            # segment in R^4
    ]
    for dim, pts in cases:
        p = Polytope(dim, pts)
        assert tuple(map(Fraction, pts[0])) not in p.vertices
        q = Polytope(dim, p.vertices)
        assert p.dim == q.dim
        assert p.hrep == q.hrep
        for ell in range(p.dim + 1):
            assert p.faces(ell) == q.faces(ell)


def test_lattice_points_leave_no_reference_cycle():
    tet = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    tet.lattice_points()  # builds the cached projection systems first
    gc.collect()
    gc.disable()
    try:
        assert len(tet.lattice_points(scale=40)) == 12341  # C(43, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hrep_of_a_polygon_whose_chart_skips_coordinates():
    # The affine hull fixes coordinates 0 and 2, so the chart reads coordinates
    # 1 and 3; the inequalities must be the triangle's, with zeros inserted.
    lifted = Polytope(4, [(5, x, 7, y) for x, y in TRIANGLE.vertices])
    assert lifted.vertices == tuple((5, x, 7, y) for x, y in TRIANGLE.vertices)
    assert lifted.hrep.equalities == (((0, 0, 1, 0), 7), ((1, 0, 0, 0), 5))
    assert lifted.hrep.inequalities == tuple(
        ((0, a, 0, b), rhs) for (a, b), rhs in TRIANGLE.hrep.inequalities
    )


def test_faces_returns_a_new_list():
    from latticeface.integrality import integrality_level

    q = Polytope(3, P1.vertices)
    q.faces(2).clear()
    assert integrality_level(q).max_level == 1
    assert len(q.faces(2)) == 4
    assert q.faces(2) is not q.faces(2)


def test_point_and_normal_lengths_are_checked():
    simplex = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    for bad in ((0, 0), (0, 0, 0, 7), (1,)):
        for query in (simplex.contains, simplex.classify_point, simplex.translate,
                      Polytope(3, []).contains):
            with pytest.raises(ValueError, match="length does not match"):
                query(bad)
        with pytest.raises(ValueError, match="length does not match"):
            simplex.intersect_hyperplane(bad, 0)
    for i in (-1, 3):
        with pytest.raises(ValueError, match="cut coordinate"):
            simplex.axis_cut(i, 0)
    assert simplex.intersect_hyperplane((1, 0, 0), 0) == simplex.axis_cut(0, 0)
    assert simplex.slice_at((0,)).vertices == simplex.axis_cut(0, 0).vertices
