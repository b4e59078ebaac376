import random
from fractions import Fraction

import pytest

from latticeface import (
    HypothesisError,
    Polytope,
    apply_affine,
    affine_is_integral,
    generality_level,
    integrality_level,
    level_certificates,
    subspace_in_general_position,
    subspace_is_integral,
)
from latticeface.integrality import certify, require
from factories import (
    certified_pool, embed_with_graph_coordinate, moment_simplex, point_mix, upper_unimodular_map,
)
from oracles import (
    affine_is_integral_by_hnf,
    integer_points_of_span_in_box,
    levels_by_hnf,
    subspace_in_general_position_by_rank,
    subspace_is_integral_by_hnf,
)

P1 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 6, 0), (2, 2, 2)])
P2 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 3, 0), (2, 1, 5)])
SQUARE = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])


def test_subspace_is_integral_examples():
    # Oracle for span{(2,1,0)}: its integer points in a box are multiples of
    # (2,1,0), so the projection to the first coordinate is 2Z, not Z.
    pts = integer_points_of_span_in_box([[2, 1, 0]], 3, 4)
    firsts = sorted({p[0] for p in pts})
    assert firsts == [-4, -2, 0, 2, 4]

    assert subspace_is_integral([[1, 0, 3]])
    assert not subspace_is_integral([[2, 1, 0]])
    assert subspace_is_integral([[1, 0, 0]])


def test_subspace_is_integral_rejects_dependent():
    with pytest.raises(ValueError):
        subspace_is_integral([[1, 0], [2, 0]])


def test_subspace_in_general_position_examples():
    assert not subspace_in_general_position([[0, 1]])
    assert subspace_in_general_position([[1, 1]])
    # lin of the unit square edge conv{(0,0),(0,1)}:
    assert not subspace_in_general_position([[0, 1]])
    assert subspace_in_general_position([])


def test_affine_is_integral_examples():
    # Edge conv{(0,0,0),(2,1,5)} of P2: direction is primitive but its first
    # coordinate is 2, so the direction space is not integral.
    assert not affine_is_integral((0, 0, 0), [[2, 1, 5]])
    assert affine_is_integral((0, 0, 0), [[4, 0, 0]])
    assert affine_is_integral((7, -2, 3), [])
    assert not affine_is_integral((Fraction(1, 2), 0), [])


def test_affine_is_integral_no_lattice_point():
    # (0, 1/2) + t(1, 2): integral direction space, but the second coordinate
    # 1/2 + 2t is never an integer when the first one is.
    assert subspace_is_integral([[1, 2]])
    assert not affine_is_integral((0, Fraction(1, 2)), [[1, 2]])
    # (1/2, 1/2) + t(1, 1) hits (1, 1) at t = 1/2.
    assert affine_is_integral((Fraction(1, 2), Fraction(1, 2)), [[1, 1]])


def test_integrality_level_reference_polytopes():
    assert integrality_level(P1).max_level == 1
    cert2 = integrality_level(P2)
    assert cert2.max_level == 0
    assert cert2.witness_vertices == ((0, 0, 0), (2, 1, 5))
    cert_sq = integrality_level(SQUARE)
    assert cert_sq.max_level == 0
    assert cert_sq.witness_vertices == ((0, 0), (0, 1))


def test_integrality_level_non_integral_vertex():
    p = Polytope(2, [(0, 0), (1, 0), (Fraction(1, 2), 1)])
    cert = integrality_level(p)
    assert cert.max_level == -1
    assert cert.witness is not None


def test_generality_level_reference_polytopes():
    assert generality_level(SQUARE).max_level == 0
    assert generality_level(P2).max_level >= 2
    assert generality_level(P1).max_level >= 2


def test_witness_recheck():
    cert = generality_level(SQUARE)
    base = cert.witness_vertices[0]
    lin = [[b - a for a, b in zip(base, cert.witness_vertices[1])]]
    assert not subspace_in_general_position(lin)


def test_integral_implies_general_and_lower_levels():
    rng = random.Random(42)
    for poly, level in certified_pool(rng, 12, max_dim=3):
        assert level >= 0
        assert generality_level(poly).max_level >= level


def test_dilation_does_not_decrease_integrality():
    rng = random.Random(6)
    for poly, level in certified_pool(rng, 8, max_dim=3):
        for m in (2, 3):
            assert integrality_level(poly.dilate(m)).max_level >= level


def test_projection_of_k_integral_is_fully_integral():
    rng = random.Random(8)
    for poly, level in certified_pool(rng, 8, max_dim=3):
        for k in range(level + 1):
            proj = poly.project(k)
            assert proj.dim == k
            assert integrality_level(proj).max_level == k


def test_levels_are_invariant_under_upper_unimodular_maps():
    # x -> x @ M + t with M upper-triangular unimodular and t integer maps
    # every leading-coordinate projection by a unimodular map of its own, so
    # neither level moves; the scan reads the image's own lattice.
    rng = random.Random(211)
    for poly, level in certified_pool(rng, 16):
        cert_int, cert_gen = level_certificates(poly)
        assert cert_int.max_level == level
        for _ in range(2):
            phi = upper_unimodular_map(rng, poly.ambient_dim, shears=4, bound=rng.randint(1, 3))
            image = apply_affine(poly, phi)
            assert image.vertices == tuple(phi.apply_point(v) for v in poly.vertices)
            img_int, img_gen = level_certificates(image)
            assert (img_int.max_level, img_gen.max_level) == (level, cert_gen.max_level)


def test_moment_simplices_are_fully_integral():
    rng = random.Random(15)
    for d in (2, 3, 4):
        poly = moment_simplex(rng, d)
        assert integrality_level(poly).max_level == d
        assert generality_level(poly).max_level == d


def _random_flat(rng):
    """A base point and a rational basis of rank 0..4 in dimension <= 5.

    Half the bases span the graph of an integer matrix over the leading
    coordinates (integral), scrambled by a random rational change of basis
    and sometimes spoiled: a rational entry, swapped columns or a repeated
    row.  The other half have small random rational entries, often with a
    vanishing leading column.  Base points
    are a lattice point plus a rational combination of the rows, or random.
    """
    dim = rng.randint(1, 5)
    r = rng.randint(0, min(4, dim))
    if rng.random() < 0.5:
        graph = [[int(i == j) for j in range(r)] + [rng.randint(-2, 2) for _ in range(dim - r)]
                 for i in range(r)]
        spoil = rng.randrange(4)
        if spoil == 1 and r and dim > r:
            graph[rng.randrange(r)][rng.randrange(r, dim)] = Fraction(rng.randint(-3, 3), 2)
        elif spoil == 2 and dim > 1:
            a, b = rng.sample(range(dim), 2)
            for row in graph:
                row[a], row[b] = row[b], row[a]
        mix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r)]
               for _ in range(r)]
        rows = [[sum(c * row[j] for c, row in zip(coeffs, graph)) for j in range(dim)]
                for coeffs in mix]
        if spoil == 3 and r:
            rows[rng.randrange(r)] = list(rows[0])
    else:
        rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(dim)]
                for _ in range(r)]
        if r and rng.random() < 0.6:  # a leading column vanishes: not general
            col = rng.randrange(r)
            for row in rows:
                row[col] = 0
    base = [rng.randint(-3, 3) for _ in range(dim)]
    if rng.random() < 0.5:
        for row in rows:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            base = [x + c * y for x, y in zip(base, row)]
    else:
        base = [x + Fraction(rng.randint(0, 1), 2) for x in base]
    return base, rows


def test_closed_form_tests_match_hnf_oracle():
    rng = random.Random(2024)
    outcomes = {name: {True: 0, False: 0, None: 0} for name in ("integral", "general", "affine")}
    for _ in range(2400):
        base, rows = _random_flat(rng)
        pairs = (
            ("integral", subspace_is_integral, subspace_is_integral_by_hnf, (rows,)),
            ("general", subspace_in_general_position, subspace_in_general_position_by_rank,
             (rows,)),
            ("affine", affine_is_integral, affine_is_integral_by_hnf, (base, rows)),
        )
        for name, closed_form, oracle, args in pairs:
            try:
                expected = oracle(*args)
            except ValueError:
                expected = None
                with pytest.raises(ValueError):
                    closed_form(*args)
            else:
                assert closed_form(*args) == expected, (name, base, rows)
            outcomes[name][expected] += 1
    for counts in outcomes.values():
        assert min(counts[True], counts[False]) >= 300, outcomes
        assert counts[None] >= 50, outcomes


def test_level_scans_match_hnf_oracle():
    rng = random.Random(31)
    levels_seen = set()
    for d in range(5):
        for case in range(12):
            poly = Polytope(*point_mix(rng, d, case))
            integral, general = levels_by_hnf(poly)
            assert level_certificates(poly) == (integral, general)
            assert integrality_level(poly) == integral
            assert generality_level(poly) == general
            levels_seen.add((integral.max_level, general.max_level))
    assert len(levels_seen) >= 6
    # Vertices with different denominators, so that one common denominator
    # clears them all: integer vertices among rational ones, with and without
    # an embedding into one more dimension.
    general_seen = set()
    for d in range(1, 5):
        for case in range(12):
            n = rng.randint(d + 1, d + 3)
            pts = [[Fraction(rng.randint(-6, 6), q) for _ in range(d)]
                   for q in (rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(n))]
            ambient = d
            if case % 2:  # x -> (x, sum(x) - c * x_0)
                ambient, c = d + 1, rng.randint(-2, 2)
                pts = [p + [sum(p) - c * p[0]] for p in pts]
            poly = Polytope(ambient, pts)
            integral, general = levels_by_hnf(poly)
            assert level_certificates(poly) == (integral, general)
            assert integrality_level(poly) == integral
            assert generality_level(poly) == general
            general_seen.add(general.max_level)
    assert len(general_seen) >= 3


def test_vertex_reader_agrees_with_the_scan(monkeypatch):
    # A lone 0-integrality requirement reads only the cleared vertices: no
    # face flat and no face lattice.  It fails exactly when the full scan ends
    # at level -1, naming the scan's witness: the first vertex with a
    # coordinate that is not an integer.
    rng = random.Random(47)
    outcomes = {True: 0, False: 0}
    seen = []
    face_flat = Polytope.face_flat
    monkeypatch.setattr(Polytope, "face_flat", lambda poly, face: seen.append(face) or face_flat(poly, face))
    for d in range(1, 5):
        for case in range(12):  # integer, rational and {-1, 0, 1} points, some embedded
            args = point_mix(rng, d, case)
            integral = level_certificates(Polytope(*args))[0]
            poly = Polytope(*args)
            seen.clear()
            outcomes[integral.max_level >= 0] += 1
            if integral.max_level >= 0:
                assert require(poly, integral=0).conditions == (("integral", True),)
                assert seen == [] and "_faces_by_dim" not in poly.__dict__
                continue
            with pytest.raises(HypothesisError) as failure:
                require(poly, integral=0)
            assert seen == [] and "_faces_by_dim" not in poly.__dict__
            assert str(failure.value) == f"polytope is not integral: {integral.describe_witness()}"
            first = next(i for i, v in enumerate(poly.vertices) if any(x.denominator != 1 for x in v))
            assert integral.witness == poly.faces(0)[first]
            assert integral.witness_vertices == (poly.vertices[first],)
    assert min(outcomes.values()) >= 5, outcomes


def test_each_scan_stops_at_its_witness(monkeypatch):
    # A scan for one certificate reads no face past that certificate's witness,
    # and reads no flat at level 0, whose faces it reads off the vertices.
    seen = []
    face_flat = Polytope.face_flat

    def counted(poly, face):
        seen.append(face)
        return face_flat(poly, face)

    monkeypatch.setattr(Polytope, "face_flat", counted)
    rational = Polytope(2, [(0, 0), (1, 0), (Fraction(1, 2), 1)])
    for poly in (P1, P2, SQUARE, rational, moment_simplex(random.Random(3), 3)):
        faces = [f for ell in range(1, poly.dim + 1) for f in poly.faces(ell)]
        integral, general = level_certificates(poly)
        for scan, cert in ((integrality_level, integral), (generality_level, general),
                           (level_certificates, general)):
            seen.clear()
            scan(poly)
            end = faces.index(cert.witness) + 1 if cert.witness in faces else 0
            assert seen == (faces[:end] if cert.witness else faces)


def _cyclic(n: int, d: int) -> Polytope:
    return Polytope(d, [tuple(t**j for j in range(1, d + 1)) for t in range(n)])


def test_certify_reads_only_the_faces_it_names(monkeypatch):
    # certify(P, integral=i, general=g) reads the flat of no face of dimension
    # above max(i, g), and its conditions and witness are those read off the
    # full scan: a bounded scan meets the same first failing face.
    seen = []
    face_flat = Polytope.face_flat
    monkeypatch.setattr(Polytope, "face_flat", lambda poly, face: seen.append(face) or face_flat(poly, face))
    rational = Polytope(2, [(0, 0), (1, 0), (Fraction(1, 2), 1)])
    embedded = Polytope(*point_mix(random.Random(8), 3, 4))
    assert embedded.dim < embedded.ambient_dim
    cases = (P1, SQUARE, rational, embedded, embed_with_graph_coordinate(random.Random(2), P2), _cyclic(8, 5))
    witnesses = 0
    for poly in cases:
        d = poly.dim
        integral, general = level_certificates(poly)
        for i in range(-1, d + 1):
            for g in range(-1, d + 1):
                conditions, witness = [], None
                for level, cert, name in (
                    (i, integral, "integral" if i == 0 else "fully integral" if i == d else f"{i}-integral"),
                    (g, general, f"in {g}-general position"),
                ):
                    if level < 0:
                        continue
                    conditions.append((name, cert.max_level >= level))
                    if cert.max_level < level and witness is None:
                        witness = f"polytope is not {name}: {cert.describe_witness()}"
                seen.clear()
                record = certify(poly, integral=i, general=g)
                assert all(face.dim <= max(i, g) for face in seen), (poly, i, g)
                assert (record.conditions, record.witness) == (tuple(conditions), witness), (poly, i, g)
                witnesses += witness is not None
    assert witnesses >= 20
    # The hypotheses of verify-mainvol --k 1 on C(20, 6) read its 190 edges only.
    cyclic = _cyclic(20, 6)
    seen.clear()
    assert certify(cyclic, integral=0, general=1).witness is None
    assert seen == cyclic.faces(1) and len(seen) == 190
