import math
import random
from fractions import Fraction

import pytest

from latticeface import (
    HypothesisError,
    Polytope,
    Sublattice,
    iter_slices,
    lin_lattice,
    normalized_volume,
    saturate,
    slice_volume_sum,
    split,
    triangulate,
    triangulate_1general,
    verify_volume_slice_identity,
)
from latticeface import polytope
from latticeface.integrality import generality_level, integrality_level
from latticeface.volume import affine_lattice_point, center_at_lattice_point
from factories import certified_pool, moment_simplex, point_mix, random_integral_simplex
from oracles import cofactor_det, normalized_volume_by_coordinates, triangulation_by_subhulls

P1 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 6, 0), (2, 2, 2)])
P2 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 3, 0), (2, 1, 5)])
SQUARE = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
PENTAGON = Polytope(2, [(-1, 1), (0, 0), (2, 0), (3, 2), (1, 3)])


def test_triangulate_simplex_is_itself():
    tri = triangulate(P1)
    assert tri.simplices == ((0, 1, 2, 3),)


def test_triangulate_square():
    tri = triangulate(SQUARE)
    assert len(tri.simplices) == 2


def test_triangulate_rejects_points():
    with pytest.raises(ValueError):
        triangulate(Polytope(2, [(1, 1)]))


def test_triangulate_1general_simplex():
    assert triangulate_1general(P1).simplices == ((0, 1, 2, 3),)


def test_triangulate_1general_rejects_square():
    with pytest.raises(HypothesisError):
        triangulate_1general(SQUARE)


def test_triangulate_1general_pentagon():
    tri = triangulate_1general(PENTAGON)
    assert len(tri.simplices) == 3
    apex = PENTAGON.vertices.index((-1, 1))
    for cell in tri.simplices:
        assert apex in cell
        sub = Polytope(2, [PENTAGON.vertices[i] for i in cell])
        assert generality_level(sub).max_level == 2
        # all edges have endpoints with distinct first coordinates
        for e in sub.faces(1):
            a, b = sub.face_vertices(e)
            assert a[0] != b[0]


def _simplices_or_error(triangulation):
    try:
        return triangulation()
    except HypothesisError as exc:
        return str(exc)


def test_triangulations_match_subhull_oracle():
    rng = random.Random(11)
    for d in range(1, 6):
        for case in range(12):
            poly = Polytope(*point_mix(rng, d, case))
            if poly.dim < 1:
                continue
            assert triangulate(poly).simplices == triangulation_by_subhulls(poly)
            assert _simplices_or_error(lambda: triangulate_1general(poly).simplices) == (
                _simplices_or_error(lambda: triangulation_by_subhulls(poly, first_coordinate=True))
            )


def test_triangulation_builds_no_face_lattice():
    # Cells are read from the vertex-facet incidences face by face, so neither
    # triangulating nor measuring P builds its full face lattice.
    rng = random.Random(12)
    full = Polytope(*point_mix(rng, 4, 0))
    embedded = Polytope(*point_mix(rng, 3, 3))
    assert full.dim == full.ambient_dim == 4 and 1 <= embedded.dim < embedded.ambient_dim
    for poly in (full, embedded):
        triangulate(poly)
        normalized_volume(poly, lin_lattice(poly))
        assert "_faces_by_dim" not in poly.__dict__


def _cyclic(n: int, d: int) -> Polytope:
    return Polytope(d, [tuple(t**j for j in range(1, d + 1)) for t in range(n)])


def _volume_over_facets(poly: Polytope) -> Fraction:
    """The volume of a full-dimensional simplicial P as the sum of the pyramids
    from the vertex centroid c over its facets: each is |det(F_1 - c, ..., F_d - c)| / d!.
    No triangulation and no elimination."""
    d = poly.dim
    c = [sum(coords) / Fraction(len(poly.vertices)) for coords in zip(*poly.vertices)]
    total = Fraction(0)
    for facet in poly.faces(d - 1):
        assert len(facet.vertex_indices) == d, "the oracle needs a simplicial polytope"
        total += abs(cofactor_det([[x - y for x, y in zip(v, c)] for v in poly.face_vertices(facet)]))
    return total / math.factorial(d)


def test_normalized_volume_matches_facet_pyramids_on_simplicial_polytopes():
    polys = [_cyclic(n, d) for d in (3, 4, 5) for n in range(d + 1, 11)]
    rng = random.Random(31)
    random_sets = 0
    while random_sets < 12:
        d = rng.randint(3, 5)
        poly = Polytope(d, [tuple(rng.randint(-20, 20) for _ in range(d)) for _ in range(rng.randint(d + 1, 10))])
        # In general position: every facet a simplex.
        if poly.dim == d and all(len(f.vertex_indices) == d for f in poly.faces(d - 1)):
            polys.append(poly)
            random_sets += 1
    for poly in polys:
        assert normalized_volume(poly, Sublattice.standard(poly.dim)) == _volume_over_facets(poly)


def test_normalized_volume_reference_values():
    z3 = Sublattice.standard(3)
    assert normalized_volume(P1, z3) == 8
    assert normalized_volume(P2, z3) == 10


def test_normalized_volume_slice_in_kernel_lattice():
    seg = Polytope(3, [(1, 1, 0), (1, 1, 1)])
    kernel = split(Sublattice.standard(3), 2).kernel
    assert kernel.basis == ((0, 0, 1),)
    assert normalized_volume(seg, kernel) == 1


def test_normalized_volume_requires_spanning_lattice():
    seg = Polytope(2, [(0, 0), (2, 3)])
    with pytest.raises(ValueError):
        normalized_volume(seg, split(Sublattice.standard(2), 1).kernel)


def test_normalized_volume_rejects_a_rank_equal_lattice_that_misses_lin():
    # Lattices of the same rank as lin(P) pass the rank check, but their span
    # is another subspace; the one rank test of basis and lin(P) rejects them.
    triangle = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    segment = Polytope(3, [(0, 0, 0), (1, 1, 1)])
    for poly, rows in ((triangle, [[1, 0, 0], [0, 0, 1]]), (triangle, [[1, 0, 1], [0, 1, 0]]),
                       (segment, [[1, 1, 0]]), (segment, [[0, 0, 1]])):
        lattice = Sublattice.from_rows(3, rows)
        assert lattice.rank == poly.dim
        with pytest.raises(ValueError, match=r"^lattice does not span lin\(P\)$"):
            normalized_volume(poly, lattice)
    assert normalized_volume(triangle, Sublattice.from_rows(3, [[1, 0, 0], [1, 1, 0]])) == Fraction(1, 2)


def test_normalized_volume_degenerate_is_zero():
    point = Polytope(2, [(1, 1)])
    lat = Sublattice.from_rows(2, [[1, 0]])
    assert normalized_volume(point, lat) == 0


def test_normalized_volume_scaling():
    rng = random.Random(23)
    for _ in range(5):
        p = random_integral_simplex(rng, rng.randint(1, 3), fully_general=False)
        lat = Sublattice.standard(p.ambient_dim)
        v = normalized_volume(p, lat)
        for m in (2, 3):
            assert normalized_volume(p.dilate(m), lat) == m**p.dim * v


def test_normalized_volume_lattice_change():
    # Vol w.r.t. a finer sublattice scales by the index.
    tri = Polytope(2, [(0, 0), (2, 0), (0, 2)])
    z2 = Sublattice.standard(2)
    coarse = Sublattice.from_rows(2, [[2, 0], [0, 1]])
    assert normalized_volume(tri, coarse) == normalized_volume(tri, z2) / 2


def test_triangulation_independence_of_volume():
    lat = Sublattice.standard(2)
    total = Fraction(0)
    for cell in triangulate_1general(PENTAGON).simplices:
        total += normalized_volume(Polytope(2, [PENTAGON.vertices[i] for i in cell]), lat)
    assert total == normalized_volume(PENTAGON, lat)


def test_slice_volume_sum_p1():
    assert slice_volume_sum(P1, 2) == 8
    # the nine interior slice volumes, in lexicographic order of the points
    proj = P1.project(2)
    interior = [y for y in proj.lattice_points() if proj.classify_point(y) == "interior"]
    vols = [
        normalized_volume(P1.slice_at(y), split(Sublattice.standard(3), 2).kernel)
        for y in interior
    ]
    assert interior == [(1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5)]
    assert vols == [
        1, 1, 2, 1, 1,
        Fraction(4, 5), Fraction(3, 5), Fraction(2, 5), Fraction(1, 5),
    ]


def test_slice_volume_sum_square_and_p2():
    assert slice_volume_sum(SQUARE, 1) == 2
    assert slice_volume_sum(P2, 2) == 8


def test_slice_volume_sum_k0_is_volume():
    assert slice_volume_sum(P1, 0) == 8


def test_slice_volume_sum_non_central_translates():
    shifted = P1.translate((5, -7, 11))
    assert slice_volume_sum(shifted, 2) == 8


def test_center_at_lattice_point_is_p_minus_a_lattice_point_of_its_hull():
    assert center_at_lattice_point(P1) is P1  # aff(P1) passes through 0
    raised = Polytope(3, [(3, 5, 7), (3, 7, 7), (4, 5, 7)])
    s = affine_lattice_point(raised)
    assert s[2] == 7  # aff(raised) is the plane x_3 = 7
    centred = center_at_lattice_point(raised)
    assert centred == raised.translate([-x for x in s])
    assert all(b == 0 for _, b in centred.hrep.equalities)


def test_slice_volume_sum_rejects_latticeless_hull():
    flat = Polytope(2, [(Fraction(1, 2), 0), (Fraction(1, 2), 1)])
    with pytest.raises(HypothesisError):
        slice_volume_sum(flat, 1)


def test_verify_identity_p1():
    report = verify_volume_slice_identity(P1, 2)
    assert report.hypotheses_hold
    assert report.lhs == 8 and report.rhs == 8 and report.equal


def test_verify_identity_square_counterexample():
    report = verify_volume_slice_identity(SQUARE, 1)
    assert not report.hypotheses_hold
    assert report.lhs == 1 and report.rhs == 2 and not report.equal
    assert "1-general" in report.witness


def test_verify_identity_p2_counterexample():
    report = verify_volume_slice_identity(P2, 2)
    assert not report.hypotheses_hold
    assert report.lhs == 10 and report.rhs == 8 and not report.equal
    assert "1-integral" in report.witness
    assert "(2, 1, 5)" in report.witness


def test_verify_identity_range_check():
    with pytest.raises(ValueError):
        verify_volume_slice_identity(P1, 3)
    with pytest.raises(ValueError):
        verify_volume_slice_identity(P1, 0)


def test_slice_sum_additive_over_1general_triangulation():
    # Valuation additivity at level 1 for a 1-general triangulation.
    total = Fraction(0)
    for cell in triangulate_1general(PENTAGON).simplices:
        piece = Polytope(2, [PENTAGON.vertices[i] for i in cell])
        total += slice_volume_sum(piece, 1)
    assert total == slice_volume_sum(PENTAGON, 1)


def test_volume_equals_slice_sum_on_certified_instances():
    rng = random.Random(77)
    checked = 0
    for poly, level in certified_pool(rng, 10, max_dim=4):
        gen = generality_level(poly).max_level
        lat = lin_lattice(poly)
        vol = normalized_volume(poly, lat)
        for k in range(1, poly.dim):
            if level >= k - 1 and gen >= k:
                assert slice_volume_sum(poly, k) == vol
                checked += 1
    assert checked >= 10


def test_volume_equals_slice_sum_on_embedded_instances():
    # Central lower-dimensional instances: the identity holds with the lattice
    # of lin(P) and its projection/kernel splitting.
    from factories import embed_with_graph_coordinate

    rng = random.Random(78)
    for _ in range(4):
        d = rng.randint(2, 3)
        poly = embed_with_graph_coordinate(rng, moment_simplex(rng, d, spread=3))
        lat = lin_lattice(poly)
        vol = normalized_volume(poly, lat)
        for k in range(1, d):
            assert slice_volume_sum(poly, k) == vol


def test_slice_sum_lower_dimensional_polytope():
    # A central segment in the plane with a skew direction.  At k = d the
    # slices are single points measured in the rank-0 kernel, so the sum
    # counts projected lattice points; it need not match the volume.
    seg = Polytope(2, [(-2, -3), (2, 3)])
    lat = lin_lattice(seg)
    assert lat.basis == ((2, 3),)
    assert normalized_volume(seg, lat) == 2
    assert slice_volume_sum(seg, 1) == 3  # points over y in {-2, 0, 2}


def test_iter_slices_reports_points_in_the_original_frame():
    shifted = P1.translate((5, -7, 11))
    slices = list(iter_slices(shifted, 2))
    assert [s.point for s in slices] == shifted.project(2).lattice_points()
    assert sum(s.volume for s in slices) == slice_volume_sum(shifted, 2) == 8
    assert {s.position for s in slices} == {"interior", "boundary"}
    for s in slices:
        original = shifted.slice_at(s.point)
        assert original.lattice_points() == s.piece.lattice_points()
    # iter_slices cuts each prefix once; every piece must still be exactly
    # slice_at of P itself (same vertex order, H-representation and faces).
    checked = off_centre = 0
    for poly in _seeded_polytopes(random.Random(83)):
        try:
            shift = affine_lattice_point(poly)
        except HypothesisError:  # aff(P) carries no lattice point
            continue
        for k in range(1, poly.dim):
            for s in iter_slices(poly, k):
                expected = poly.slice_at(s.point)
                assert s.piece.vertices == expected.vertices
                assert s.piece.hrep == expected.hrep
                assert _all_faces(s.piece) == _all_faces(expected)
                checked += 1
                off_centre += any(shift)  # embedded, with 0 not on aff(P)
    assert checked >= 300 and off_centre >= 50


def test_iter_slices_runs_no_hull(monkeypatch):
    # Every piece is cut from its parent's incidences, so once P and its
    # projections exist no double description runs, whatever the slices.
    hulls = []
    hull = polytope._double_description
    monkeypatch.setattr(polytope, "_double_description", lambda *a: hulls.append(a) or hull(*a))
    pieces = 0
    for poly in _seeded_polytopes(random.Random(89)):
        try:
            affine_lattice_point(poly)
        except HypothesisError:  # aff(P) carries no lattice point
            continue
        for k in range(1, poly.dim):
            for j in range(1, k + 1):
                poly.project(j)
            hulls.clear()
            pieces += sum(s.piece.dim >= 1 for s in iter_slices(poly, k))
            assert hulls == []
    assert pieces >= 100


def test_measured_slices_build_no_hrep_or_lin_basis():
    # Measuring a cut piece reads its integer flat and vertices only, so a
    # slice that is only measured never builds either of them.  A piece
    # inherits P's facet masks but no facet normal: its H-representation is
    # its own hull, built on first read.
    measured = rebuilt = 0
    for poly in _seeded_polytopes(random.Random(97)):
        try:
            affine_lattice_point(poly)
        except HypothesisError:  # aff(P) carries no lattice point
            continue
        for k in range(1, poly.dim):
            for s in iter_slices(poly, k):
                if s.piece is not poly:  # a cut that holds all of P returns P
                    measured += s.volume != 0
                    assert "hrep" not in vars(s.piece) and "lin_basis" not in vars(s.piece)
                    if s.piece.dim >= 1:
                        assert "_facets" not in vars(s.piece)
                        assert s.piece.hrep == Polytope(poly.ambient_dim, s.piece.vertices).hrep
                        rebuilt += 1
    assert measured >= 100 and rebuilt >= 100


def _seeded_polytopes(rng: random.Random) -> list[Polytope]:
    """The point_mix cases of dimension 2 and 3, embedded ones included, and
    a certified pool of integral polytopes up to dimension 4."""
    polys = [Polytope(*point_mix(rng, d, case)) for d in (2, 3) for case in range(12)]
    return polys + [poly for poly, _ in certified_pool(rng, 8, max_dim=4)]


def _all_faces(poly: Polytope) -> list[list]:
    return [poly.faces(ell) for ell in range(poly.dim + 1)]


def test_normalized_volume_matches_per_edge_oracle():
    # Lattices whose Hermite pivots are not all 1: the kernel lattices of split,
    # in which the slices are measured, and the doubled lattice of lin(P).
    non_unit = 0
    for poly in _seeded_polytopes(random.Random(84)):
        if poly.dim < 1:
            continue
        lat = lin_lattice(poly)
        doubled = Sublattice.from_rows(poly.ambient_dim, [[2 * x for x in row] for row in lat.basis])
        for measure in (lat, doubled):
            assert normalized_volume(poly, measure) == normalized_volume_by_coordinates(poly, measure)
        try:
            affine_lattice_point(poly)
        except HypothesisError:
            continue
        for k in range(1, poly.dim):
            kernel = split(lat, k).kernel
            for s in iter_slices(poly, k):
                if s.piece.dim == kernel.rank:
                    assert s.volume == normalized_volume_by_coordinates(s.piece, kernel)
                    non_unit += any(next(x for x in row if x) > 1 for row in kernel.basis)
    assert non_unit >= 20
    # Any basis of the lattice gives the same volume, not only the Hermite one.
    tri = Polytope(2, [(0, 0), (2, 0), (0, 2)])
    swapped = Sublattice(2, ((0, 1), (2, 1)))
    assert normalized_volume(tri, swapped) == normalized_volume_by_coordinates(tri, swapped) == 1
