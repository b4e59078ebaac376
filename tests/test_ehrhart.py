import functools
import math
import random
from fractions import Fraction

import pytest

from latticeface import (
    AffineMap,
    EhrhartPolynomial,
    HypothesisError,
    Polytope,
    Sublattice,
    apply_affine,
    count_points,
    ehrhart_from_projections,
    ehrhart_from_slices,
    ehrhart_interpolated,
    ehrhart_polynomial,
    iter_slice_polynomials,
    iter_slices,
    normalized_volume,
    verify_codim1_identity,
)
from latticeface.cli import main
from latticeface.integrality import integrality_level
from latticeface.polytope import BudgetExceeded
from factories import (
    certified_pool,
    embed_with_graph_coordinate,
    moment_simplex,
    point_mix,
    product_polytope,
    upper_unimodular_map,
)
from oracles import count_by_box_scan, ehrhart_by_box_counts

P1 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 6, 0), (2, 2, 2)])
TRIANGLE = Polytope(2, [(0, 0), (4, 0), (3, 6)])
INTERVAL = Polytope(1, [(0,), (4,)])


def test_count_points_examples():
    assert count_points(P1, 1) == 23  # 8 + 10 + 4 + 1
    assert count_points(INTERVAL, 2) == 9
    cube = Polytope(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert count_points(cube, 2) == 27
    with pytest.raises(ValueError):
        count_points(P1, 0)


def test_ehrhart_interpolated_p1():
    poly = ehrhart_interpolated(P1)
    assert poly.coefficients == (1, 4, 10, 8)
    assert str(poly) == "8*m^3 + 10*m^2 + 4*m + 1"


def test_ehrhart_interpolated_slice():
    assert ehrhart_interpolated(P1.slice_at((2,))).coefficients == (1, 4, 4)


def test_ehrhart_interpolated_segment():
    seg = Polytope(1, [(0,), (1,)])
    assert ehrhart_interpolated(seg).coefficients == (1, 1)


def test_ehrhart_interpolated_rejects_rational():
    half = Polytope(1, [(0,), (Fraction(1, 2),)])
    with pytest.raises(HypothesisError):
        ehrhart_interpolated(half)


def test_ehrhart_from_slices_p1():
    for k in (0, 1):
        assert ehrhart_from_slices(P1, k).coefficients == (1, 4, 10, 8)


def test_ehrhart_from_slices_intermediate_sum():
    # The raw sum of the five slice polynomials over the first coordinate.
    total = EhrhartPolynomial((Fraction(0),))
    for y in P1.project(1).lattice_points():
        total = total + ehrhart_interpolated(P1.slice_at(y))
    assert total.coefficients == (5, 10, 8)


def test_ehrhart_from_slices_boundary_slices_are_points():
    # The slice formula sums over every prefix of a lattice point, boundary
    # ones included, because a boundary slice of a k-integral P is one point.
    rng = random.Random(11)
    checked = 0
    for poly, level in [(P1, 1), *certified_pool(rng, 40, max_dim=4)]:
        for k in range(1, min(level, poly.dim - 1) + 1):
            proj = poly.project(k)
            for y in proj.lattice_points():
                if proj.classify_point(y) == "boundary":
                    piece = poly.slice_at(y)
                    assert piece.dim == 0
                    assert ehrhart_interpolated(piece).coefficients == (1,)
                    checked += 1
    assert checked >= 400


def test_ehrhart_from_slices_segment():
    seg = Polytope(1, [(0,), (1,)])
    assert ehrhart_from_slices(seg, 1).coefficients == (1, 1)


def test_ehrhart_from_slices_hypothesis_failure():
    with pytest.raises(HypothesisError):
        ehrhart_from_slices(P1, 2)  # P1 is not 2-integral


def test_ehrhart_from_projections_examples():
    assert ehrhart_from_projections(INTERVAL).coefficients == (1, 4)
    # Derived via brute-force counts: interpolation agrees with the closed form.
    assert ehrhart_interpolated(TRIANGLE).coefficients == (1, 4, 12)
    assert ehrhart_from_projections(TRIANGLE).coefficients == (1, 4, 12)
    point = Polytope(2, [(3, -1)])
    assert ehrhart_from_projections(point).coefficients == (1,)


def test_closed_form_counts_no_lattice_point(monkeypatch):
    # Under a cell budget of 0 every lattice walk raises BudgetExceeded, so the
    # projection closed form (k = dim P) and a 0-dimensional P must count nothing.
    monkeypatch.setenv("LATTICEFACE_CELL_BUDGET", "0")
    with pytest.raises(BudgetExceeded):
        count_points(P1, 1)
    rng = random.Random(64)
    cyclic = Polytope(6, [tuple(t**j for j in range(1, 7)) for t in range(12)])
    for poly in [*(moment_simplex(rng, d) for d in (1, 2, 3, 4)), cyclic]:
        closed = ehrhart_from_projections(poly).coefficients
        span = max(v[0] for v in poly.vertices) - min(v[0] for v in poly.vertices)
        assert closed[:2] == (1, span)
        assert closed[-1] == normalized_volume(poly, Sublattice.standard(poly.dim))
    assert ehrhart_interpolated(Polytope(3, [(2, -1, 5)])).coefficients == (1,)


@functools.cache
def _box_references() -> list:
    """(P, level, box-scan Ehrhart coefficients of P) for the examples above
    and the first pool member of each dimension and level whose largest
    dilated box, at m = dim P + 1, has at most 2,000 points.  The reference
    interpolates counts from a bounding-box scan, so it shares neither the
    walker nor the slice formula with the library."""
    small = {}
    for poly, level in certified_pool(random.Random(102), 20, max_dim=3):
        m = poly.dim + 1
        spans = [max(v[i] for v in poly.vertices) - min(v[i] for v in poly.vertices)
                 for i in range(poly.ambient_dim)]
        if math.prod(m * s + 1 for s in spans) <= 2000:
            small.setdefault((poly.dim, level), (poly, level))
    assert len(small) >= 2
    return [
        (poly, level, ehrhart_by_box_counts(poly.vertices))
        for poly, level in [(P1, 1), (TRIANGLE, 2), (INTERVAL, 1), *small.values()]
    ]


def test_slice_formula_matches_box_count_interpolation():
    # The graph embedding x -> (x, u.x) maps the lattice points of mP one to
    # one onto those of its image, at the same level, so each reference also
    # serves the embedded image, which is not full-dimensional.
    rng = random.Random(104)
    for poly, level, reference in _box_references():
        for image in (poly, embed_with_graph_coordinate(rng, poly)):
            for k in range(level + 1):
                assert ehrhart_from_slices(image, k).coefficients == reference


def test_reciprocity_of_box_count_interpolation_at_interior_counts():
    # Ehrhart-Macdonald reciprocity, (-1)^d L_P(-m) = #(relint(mP) cap Z^D),
    # between the box-scan interpolant, fitted at positive dilates only, and
    # the walker's interior counts, at which the slice formula interpolates.
    # The embedding maps relative interiors onto each other, as above.
    rng = random.Random(103)
    for poly, _, coefficients in _box_references():
        reference = EhrhartPolynomial(coefficients)
        for image in (poly, embed_with_graph_coordinate(rng, poly)):
            for m in (1, 2):
                interior = sum(image.lattice_point_counts(scale=m, interior=True).values())
                assert (-1) ** poly.dim * reference(-m) == interior


def test_ehrhart_from_projections_hypothesis_failure():
    with pytest.raises(HypothesisError):
        ehrhart_from_projections(P1)


def test_verify_codim1_triangle():
    report = verify_codim1_identity(TRIANGLE)
    assert report.hypotheses_hold and report.equal
    assert report.lhs == 17
    assert report.details["projection_count"] == 5
    assert report.details["volume"] == 12


def test_verify_codim1_interval():
    report = verify_codim1_identity(INTERVAL)
    assert report.hypotheses_hold and report.equal
    assert report.lhs == 5 and report.rhs == 1 + 4


def test_verify_codim1_p1_hypotheses_fail():
    report = verify_codim1_identity(P1)
    assert not report.hypotheses_hold
    assert "2-integral" in report.hypotheses[0][0]


def test_evaluation_matches_counts():
    rng = random.Random(101)
    for poly, level in certified_pool(rng, 8, max_dim=3):
        reference = ehrhart_interpolated(poly)
        for k in range(level + 1):
            assert ehrhart_from_slices(poly, k) == reference
        for m in range(1, poly.dim + 2):
            assert reference(m) == count_points(poly, m)


def test_counts_match_box_oracle():
    rng = random.Random(55)
    for _ in range(5):
        poly = moment_simplex(rng, 2)
        for m in (1, 2, 3):
            assert count_points(poly, m) == count_by_box_scan(poly.vertices, m)


def test_dilation_is_a_change_of_variable():
    # L_{tP}(m) = L_P(tm).  The H-representation of tP differs from that of P,
    # so the two sides are different walks; the polynomial side evaluates the
    # interpolant past the dilates it was fitted on, and at negative m.
    rng = random.Random(56)
    for poly, _ in certified_pool(rng, 10, max_dim=4):
        reference = ehrhart_interpolated(poly)
        for t in (2, 3):
            dilated = poly.dilate(t)
            for m in (1, 2):
                assert count_points(dilated, m) == count_points(poly, t * m) == reference(t * m)
            stretched = ehrhart_interpolated(dilated)
            for m in range(-3, 4):
                assert stretched(m) == reference(t * m)


def test_ehrhart_macdonald_reciprocity():
    # (-1)^d L_P(-m) is the number of relative interior lattice points of mP,
    # counted here point by point with classify_point.
    rng = random.Random(57)
    pool = [poly for poly, _ in certified_pool(rng, 10, max_dim=4)]
    pool += [embed_with_graph_coordinate(rng, poly) for poly in pool[:2]]  # not full-dimensional
    for poly in pool:
        reference = ehrhart_interpolated(poly)
        for m in (1, 2, 3):
            dilate = poly.dilate(m)
            interior = sum(
                1 for pt in poly.lattice_points(scale=m) if dilate.classify_point(pt) == "interior"
            )
            assert (-1) ** poly.dim * reference(-m) == interior


def test_fully_integral_closed_form_matches_interpolation():
    rng = random.Random(60)
    for d in (2, 3):
        for _ in range(3):
            poly = moment_simplex(rng, d)
            closed = ehrhart_from_projections(poly)
            assert closed == ehrhart_interpolated(poly)
            assert closed.coefficients[0] == 1


def test_projection_polynomial_forms_agree():
    # Interpolating the projection reproduces the projection-volume coefficients.
    rng = random.Random(61)
    for poly, level in certified_pool(rng, 6, max_dim=3):
        for k in range(level + 1):
            proj = poly.project(k)
            vols = [
                normalized_volume(proj.project(j), Sublattice.standard(j))
                for j in range(k + 1)
            ]
            assert ehrhart_interpolated(proj).coefficients == tuple(vols)


def test_leading_coefficient_is_volume():
    rng = random.Random(62)
    for poly, _ in certified_pool(rng, 6, max_dim=3):
        from latticeface import lin_lattice

        poly_ehr = ehrhart_interpolated(poly)
        assert poly_ehr.coefficients[-1] == normalized_volume(poly, lin_lattice(poly))


def test_coefficient_positivity_for_deeply_integral():
    rng = random.Random(63)
    for poly, level in certified_pool(rng, 8, max_dim=4):
        if level >= poly.dim - 2:
            assert all(c > 0 for c in ehrhart_interpolated(poly).coefficients)


def test_polynomial_str_and_eval():
    poly = EhrhartPolynomial((1, Fraction(1, 2), Fraction(3, 2)))
    assert poly(2) == 1 + 1 + 6
    assert str(poly) == "3/2*m^2 + 1/2*m + 1"
    assert poly.as_list() == [1, "1/2", "3/2"]
    assert str(EhrhartPolynomial((1, -1, 2))) == "2*m^2 - m + 1"
    assert str(EhrhartPolynomial((-3, 0, -1))) == "-m^2 - 3"


def test_reeve_tetrahedra_match_their_closed_form(tmp_path, capsys):
    # Reeve's tetrahedron conv{0, e1, e2, (1, 1, r)} has no lattice point but
    # its vertices and L(m) = (r/6) m^3 + m^2 + (2 - r/6) m + 1, a closed form
    # that owes nothing to the slice formula; its linear coefficient is
    # negative for r > 12, and the text output must print it as "- ...".
    for r in range(1, 16):
        poly = Polytope(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)])
        expected = (1, 2 - Fraction(r, 6), 1, Fraction(r, 6))
        for method in ("auto", "interpolate"):
            assert ehrhart_polynomial(poly, method)[2].coefficients == expected, (r, method)
    path = tmp_path / "reeve13.json"
    path.write_text('{"ambient_dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 13]]}')
    assert main(["ehrhart", str(path)]) == 0
    assert "polynomial: 13/6*m^3 + m^2 - 1/6*m + 1\n" in capsys.readouterr().out


def test_select_ehrhart_method():
    square = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert ehrhart_polynomial(P1)[:2] == ("k-integral", 1)
    assert ehrhart_polynomial(P1, "auto", 2)[:2] == ("k-integral", 1)  # auto ignores k
    assert ehrhart_polynomial(square)[:2] == ("k-integral", 0)
    assert ehrhart_polynomial(TRIANGLE)[:2] == ("fully-integral", None)
    assert ehrhart_polynomial(P1, "k-integral")[:2] == ("k-integral", 1)
    assert ehrhart_polynomial(P1, "k-integral", 0)[:2] == ("k-integral", 0)
    assert ehrhart_polynomial(P1, "interpolate", 2)[:2] == ("interpolate", None)
    with pytest.raises(HypothesisError):  # P1 is only 1-integral
        ehrhart_polynomial(P1, "fully-integral")
    assert ehrhart_polynomial(TRIANGLE, "fully-integral")[:2] == ("fully-integral", None)
    with pytest.raises(ValueError):
        ehrhart_polynomial(P1, "guess")
    half = Polytope(1, [(Fraction(1, 2),), (3,)])
    with pytest.raises(HypothesisError):
        ehrhart_polynomial(half)


def test_picks_theorem_on_lattice_polygons():
    # Pick: area = I + B/2 - 1 with B = sum of gcd(|dx|, |dy|) over the edges,
    # so with L = I + B points 2 * area = 2L - B - 2 and L_P(m) = 1 + (B/2) m
    # + area m^2.  The area is the normalized volume (a unit square has
    # volume 1).  B and L need no determinant and no triangulation; the
    # polynomial is the library's "auto" method.
    rng = random.Random(71)
    checked = 0
    for case in range(60):
        if case % 6 not in (0, 2):  # integer coordinates in the plane
            continue
        _, pts = point_mix(rng, 2, case)
        poly = Polytope(2, pts)
        if poly.dim < 2:
            continue
        vertices = [[int(x) for x in v] for v in poly.vertices]
        boundary = sum(
            math.gcd(*(vertices[i][c] - vertices[j][c] for c in (0, 1)))
            for i, j in (face.vertex_indices for face in poly.faces(1))
        )
        points = count_points(poly, 1)
        area = normalized_volume(poly, Sublattice.standard(2))
        assert 2 * area == 2 * points - boundary - 2
        _, _, polynomial = ehrhart_polynomial(poly)
        assert polynomial == EhrhartPolynomial((1, Fraction(boundary, 2), area))
        checked += 1
    assert checked >= 15


def _unimodular_images(rng: random.Random, poly: Polytope) -> list[Polytope]:
    """P under an upper-triangular unimodular map, its lower-triangular mirror
    (the transposed matrix) and a coordinate permutation, each followed by an
    integer translation."""
    dim = poly.ambient_dim
    upper = upper_unimodular_map(rng, dim, shears=3)
    order = rng.sample(range(dim), dim)
    maps = (
        upper,
        AffineMap(tuple(zip(*upper.matrix)), upper.offset),
        AffineMap.linear([[int(j == order[i]) for j in range(dim)] for i in range(dim)]).then(
            AffineMap.translation([rng.randint(-2, 2) for _ in range(dim)])),
    )
    return [apply_affine(poly, phi) for phi in maps]


def test_volume_and_ehrhart_are_invariant_under_unimodular_maps():
    # An integer map of determinant +-1 plus an integer shift is a bijection
    # of Z^D, so it keeps every lattice-point count and every volume in Z^D.
    rng = random.Random(72)
    polys = [poly for poly, _ in certified_pool(rng, 8, max_dim=4)]
    for case in range(24):
        if case % 3 == 0:  # integer points, embedded when case % 6 == 3
            poly = Polytope(*point_mix(rng, rng.randint(2, 3), case))
            if poly.dim >= 1 and all(x.denominator == 1 for v in poly.vertices for x in v):
                polys.append(poly)
    assert sum(poly.dim < poly.ambient_dim for poly in polys) >= 2
    for poly in polys:
        z = Sublattice.standard(poly.ambient_dim)
        volume, polynomial = normalized_volume(poly, z), ehrhart_from_slices(poly, 0)
        for image in _unimodular_images(rng, poly):
            assert normalized_volume(image, z) == volume
            assert ehrhart_from_slices(image, 0) == polynomial


def test_ehrhart_polynomial_reports_the_selected_method():
    square = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    cases = (
        ((P1,), ("k-integral", 1, ehrhart_from_slices(P1, 1))),
        ((P1, "k-integral", 0), ("k-integral", 0, ehrhart_from_slices(P1, 0))),
        ((P1, "interpolate", 2), ("interpolate", None, ehrhart_interpolated(P1))),
        ((square,), ("k-integral", 0, ehrhart_from_slices(square, 0))),
        ((TRIANGLE,), ("fully-integral", None, ehrhart_from_projections(TRIANGLE))),
    )
    for args, expected in cases:
        assert ehrhart_polynomial(*args) == expected
    assert ehrhart_polynomial(P1)[2] == ehrhart_interpolated(P1)
    with pytest.raises(HypothesisError):
        ehrhart_polynomial(Polytope(1, [(Fraction(1, 2),), (3,)]))


def test_ehrhart_polynomial_scans_integrality_once(monkeypatch):
    # The scan that picks the level of "auto" or of "k-integral" without k
    # also certifies it; an explicit level or method is certified by one scan.
    # Only scans that read a face count: level 0 is read off the vertices.
    from latticeface import integrality

    scans, reads = [], []
    scan, face_flat = integrality._level_scan, Polytope.face_flat

    def counted(*args):
        before = len(reads)
        result = scan(*args)
        if len(reads) > before:
            scans.append(args)
        return result

    monkeypatch.setattr(integrality, "_level_scan", counted)
    monkeypatch.setattr(Polytope, "face_flat", lambda poly, face: reads.append(face) or face_flat(poly, face))
    cases = (
        ((P1,), 1), ((P1, "k-integral"), 1), ((TRIANGLE,), 1), ((P1, "k-integral", 1), 1),
        ((TRIANGLE, "fully-integral"), 1), ((P1, "k-integral", 0), 0), ((P1, "interpolate"), 0),
    )
    for args, expected in cases:
        scans.clear()
        ehrhart_polynomial(*args)
        assert len(scans) == expected, args


def _slice_polynomial_cases() -> list[Polytope]:
    """Pool members, integral ``point_mix`` hulls (some embedded by their
    generator) and graph-coordinate images of both, so lower-dimensional P
    too, and prisms [0, 5/2] x Q, whose slices over the first coordinate
    are integral although they are walked through the rows of a P that is not."""
    rng = random.Random(160)
    polys = [poly for poly, _ in certified_pool(rng, 12, max_dim=4)]
    half = Polytope(1, [(0,), (Fraction(5, 2),)])
    rational = [product_polytope(half, poly) for poly in polys if poly.dim <= 2][:4]
    for case in range(30):
        if case % 3 != 1:  # integer or {-1, 0, 1} coordinates
            poly = Polytope(*point_mix(rng, rng.randint(1, 3), case))
            if poly.dim >= 1 and all(x.denominator == 1 for v in poly.vertices for x in v):
                polys.append(poly)
    return polys + [embed_with_graph_coordinate(rng, poly) for poly in polys[::3]] + rational


def test_slice_polynomials_match_each_piece_interpolated():
    # The reference builds each piece's own projection hulls; the slice
    # polynomials read the rows of P's projections at the piece's prefix.
    # At each level the first small interior and boundary pieces are also
    # checked against box-scan counts, which share no code with either.
    boundary = boxed = of_rational = 0
    polys = _slice_polynomial_cases()
    assert sum(poly.dim < poly.ambient_dim for poly in polys) >= 4
    for poly in polys:
        for k in range(poly.dim + 1):
            slices = list(iter_slice_polynomials(poly, k))
            assert [s for s, _ in slices] == list(iter_slices(poly, k))
            unboxed = {"interior", "boundary"}
            for s, polynomial in slices:
                piece = s.piece
                integral = all(x.denominator == 1 for v in piece.vertices for x in v)
                assert (polynomial is not None) == integral
                if not integral:
                    continue
                assert polynomial == ehrhart_interpolated(piece)
                if piece.dim == 0:
                    continue
                boundary += s.position == "boundary"
                of_rational += any(x.denominator != 1 for v in poly.vertices for x in v)
                spans = [max(v[i] for v in piece.vertices) - min(v[i] for v in piece.vertices)
                         for i in range(poly.ambient_dim)]
                if s.position in unboxed and math.prod((piece.dim + 1) * w + 1 for w in spans) <= 100:
                    assert polynomial.coefficients == ehrhart_by_box_counts(piece.vertices)
                    unboxed.discard(s.position)
                    boxed += 1
    assert boundary >= 50 and boxed >= 50 and of_rational >= 20


def test_slice_polynomials_sum_to_the_point_count_at_one():
    # Sum over y of L_{Q_y}(1) = #(Q_y cap Z^D) is #(P cap Z^D), an identity
    # independent of how each slice polynomial is found: checked against a
    # bounding-box scan on full-dimensional P whose slices are all integral.
    checked = 0
    for poly, _ in certified_pool(random.Random(161), 40, max_dim=3):
        spans = [max(v[i] for v in poly.vertices) - min(v[i] for v in poly.vertices)
                 for i in range(poly.ambient_dim)]
        if poly.dim < poly.ambient_dim or math.prod(w + 1 for w in spans) > 1000:
            continue
        count = count_by_box_scan(poly.vertices)
        for k in range(poly.dim + 1):
            polynomials = [q for _, q in iter_slice_polynomials(poly, k)]
            if None in polynomials:
                continue
            total = sum(polynomials, EhrhartPolynomial((Fraction(0),)))
            assert sum(total.coefficients) == count
            checked += 1
    assert checked >= 60


def test_slice_polynomials_unchanged_by_a_lift_to_level_one():
    # P x {1} is embedded and off the origin.  Its slices are those of P with
    # a last coordinate 1, so every term is that of P, piece and polynomial.
    lifted_terms = 0
    for poly in _slice_polynomial_cases()[::2]:
        lifted = Polytope(poly.ambient_dim + 1, [v + (1,) for v in poly.vertices])
        for k in range(poly.dim + 1):
            terms = list(iter_slice_polynomials(poly, k))
            lifts = list(iter_slice_polynomials(lifted, k))
            assert [(s.point, s.position, s.volume, q) for s, q in lifts] == [
                (s.point, s.position, s.volume, q) for s, q in terms
            ]
            for (s, _), (t, _) in zip(lifts, terms):
                assert s.piece.vertices == tuple(v + (1,) for v in t.piece.vertices)
            lifted_terms += len(lifts)
    assert lifted_terms >= 200
