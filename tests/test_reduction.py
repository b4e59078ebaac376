import itertools
import random
from fractions import Fraction

import pytest

from latticeface import (
    AffineMap,
    HypothesisError,
    Polytope,
    Sublattice,
    apply_affine,
    count_points,
    find_generic_integer_vector,
    generality_level,
    integrality_level,
    lin_lattice,
    normalized_volume,
    reduce_to_full_general,
    slice_volume_sum,
)
from latticeface import integrality, reduction
from factories import embed_with_graph_coordinate, moment_simplex
from oracles import matmul_by_fractions, reduce_by_rehulling

P1 = Polytope(3, [(0, 0, 0), (4, 0, 0), (3, 6, 0), (2, 2, 2)])


def test_find_generic_vector_examples():
    assert find_generic_integer_vector([(1, 0)]) == (1, 0)
    assert find_generic_integer_vector([(0, 1)]) == (1, 1)
    assert find_generic_integer_vector([(1, -1), (0, 1)]) == (1, -1)


def test_find_generic_vector_enumeration_oracle():
    # Re-derive the expected winner by explicit candidate enumeration.
    vectors = [(2, -1), (1, -2), (0, 5)]
    def ok(w, vectors):
        return all(sum(a * b for a, b in zip(v, w)) != 0 for v in vectors)
    candidates = [(1, 0), (1, 1), (1, -1), (1, 2), (1, -2)]
    expected = next(w for w in candidates if ok(w, vectors))
    assert find_generic_integer_vector(vectors) == expected
    # Seeded rational vectors against every tail in [-4, 4]^(m-1), sorted in
    # the documented order: by max-norm, then lexicographically with each
    # coordinate ranked 0, 1, -1, 2, -2, ..., and tested in Fractions.
    rng = random.Random(34)
    for _ in range(60):
        m = rng.randint(1, 4)
        vectors = []
        while len(vectors) < rng.randint(1, 6):
            v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(m))
            if any(v):
                vectors.append(v)
        tails = sorted(itertools.product(range(-4, 5), repeat=m - 1),
                       key=lambda t: (max(map(abs, t), default=0), [2 * abs(x) - (x > 0) for x in t]))
        expected = next((1, *t) for t in tails if ok((1, *t), vectors))
        assert find_generic_integer_vector(vectors) == expected, vectors


def test_find_generic_vector_properties():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(1, 4)
        vectors = []
        while len(vectors) < rng.randint(1, 5):
            v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m))
            if any(x != 0 for x in v):
                vectors.append(v)
        w = find_generic_integer_vector(vectors)
        assert w[0] == 1
        assert all(sum(a * b for a, b in zip(v, w)) != 0 for v in vectors)
        assert find_generic_integer_vector(vectors) == w  # deterministic


def test_find_generic_vector_rejects_zero():
    with pytest.raises(ValueError):
        find_generic_integer_vector([(0, 0)])


def test_apply_affine_identity():
    assert apply_affine(P1, AffineMap.identity(3)) == P1


def test_apply_affine_translation_preserves_counts():
    shifted = apply_affine(P1, AffineMap.translation((2, -5, 1)))
    for m in (1, 2):
        assert count_points(shifted, m) == count_points(P1, m)


def test_apply_affine_unimodular_preserves_volume():
    shear = AffineMap.linear([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    image = apply_affine(P1, shear)
    z3 = Sublattice.standard(3)
    assert normalized_volume(image, z3) == normalized_volume(P1, z3)


def test_affine_map_composition():
    f = AffineMap.translation((1, 0)).then(AffineMap.linear([[0, 1], [1, 0]]))
    assert f.apply_point((2, 3)) == (3, 3)


def test_affine_map_composition_matches_fraction_products():
    # f.then(g) is x -> f.offset @ g.matrix + g.offset + x @ (f.matrix @ g.matrix);
    # the integer composite must equal it entry by entry and act as g after f.
    rng = random.Random(19)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(60):
        dims = [rng.randint(1, 5) for _ in range(3)]
        f, g = (AffineMap(tuple(tuple(rational() for _ in range(m)) for _ in range(n)),
                          tuple(rational() for _ in range(m)))
                for n, m in zip(dims, dims[1:]))
        h = f.then(g)
        (offset,) = matmul_by_fractions([f.offset], g.matrix)
        assert h.matrix == tuple(map(tuple, matmul_by_fractions(f.matrix, g.matrix)))
        assert h.offset == tuple(x + y for x, y in zip(offset, g.offset))
        assert all(type(x) is Fraction for row in (*h.matrix, h.offset) for x in row)
        x = [rational() for _ in range(dims[0])]
        assert h.apply_point(x) == g.apply_point(f.apply_point(x))


def test_slice_volume_preserving_check():
    good = AffineMap.linear([[1, 2, 5], [0, 1, 7], [0, 0, 1]]).then(
        AffineMap.translation((4, -1, Fraction(1, 2)))
    )
    assert good.is_slice_volume_preserving(2)
    bad = AffineMap.linear([[2, 0], [0, 1]])
    assert not bad.is_slice_volume_preserving(1)
    # Each other condition fails on its own; a fractional offset is allowed
    # only past the leading k coordinates.
    half = Fraction(1, 2)
    for matrix, offset, k in (
        ([[1, 0], [1, 1]], (0, 0), 1),  # nonzero lower-left block
        ([[1, 0], [1, 1]], (0, 0), 2),  # leading block not upper triangular
        ([[half, 0], [0, 2]], (0, 0), 1),  # non-integer leading entry
        ([[1, 0], [0, 2]], (0, 0), 1),  # trailing determinant 2
        ([[1, 0], [0, 1]], (half, 0), 1),  # fractional leading offset
    ):
        phi = AffineMap.linear(matrix).then(AffineMap.translation(offset))
        assert not phi.is_slice_volume_preserving(k), (matrix, offset, k)
    shear = AffineMap.linear([[1, 5], [0, 1]]).then(AffineMap.translation((3, Fraction(1, 3))))
    assert shear.is_slice_volume_preserving(1)


def test_reduce_p1():
    phi, q = reduce_to_full_general(P1, 2)
    assert q.ambient_dim == 3 and q.dim == 3
    assert generality_level(q).max_level == 3
    assert integrality_level(q).max_level >= 1
    z3 = Sublattice.standard(3)
    assert normalized_volume(q, z3) == 8
    assert slice_volume_sum(q, 2, z3) == 8
    # The ambient map reproduces q's vertices in its leading coordinates.
    image = sorted(tuple(phi.apply_point(v))[:3] for v in P1.vertices)
    assert image == sorted(q.vertices)


def test_reduce_segment():
    seg = Polytope(2, [(0, 0), (2, 3)])
    phi, q = reduce_to_full_general(seg, 1)
    assert q == Polytope(1, [(0,), (1,)])
    assert normalized_volume(q, Sublattice.standard(1)) == 1


def test_reduce_keeps_p_when_its_map_is_the_identity(monkeypatch):
    # A fully general simplex through 0 already in staircase position: its map
    # is the identity, so P itself is the image and is scanned once.
    poly = Polytope(3, [(0, 0, 0), (1, 1, 1), (2, 4, 8), (3, 9, 27)])
    scans = []
    scan = integrality._level_scan
    monkeypatch.setattr(integrality, "_level_scan", lambda p, *tests: scans.append(p) or scan(p, *tests))
    monkeypatch.setattr(reduction, "apply_affine", None)  # no image is built
    for k in (1, 2, 3):
        scans.clear()
        phi, q = reduce_to_full_general(poly, k)
        assert phi == AffineMap.identity(3) and q is poly and scans == [poly]


def test_reduce_rejects_square():
    square = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(HypothesisError):
        reduce_to_full_general(square, 1)


def test_reduce_rejects_hull_without_lattice_points():
    flat = Polytope(2, [(Fraction(1, 2), 0), (Fraction(1, 2), 1)])
    with pytest.raises(HypothesisError):
        reduce_to_full_general(flat, 1)


def test_reduce_translates_non_central_input():
    shifted = P1.translate((0, 0, 7))
    phi, q = reduce_to_full_general(shifted, 2)
    assert normalized_volume(q, Sublattice.standard(3)) == 8


def test_reduce_preserves_invariants_on_embedded_instances():
    rng = random.Random(91)
    for _ in range(6):
        d = rng.randint(2, 3)
        base = moment_simplex(rng, d, spread=3)
        poly = embed_with_graph_coordinate(rng, base)
        lat = lin_lattice(poly)
        vol = normalized_volume(poly, lat)
        for k in range(1, d):
            svol = slice_volume_sum(poly, k, lat)
            phi, q = reduce_to_full_general(poly, k)
            zd = Sublattice.standard(q.ambient_dim)
            assert q.dim == q.ambient_dim == d
            assert generality_level(q).max_level == d
            assert integrality_level(q).max_level >= k - 1
            assert normalized_volume(q, zd) == vol
            assert slice_volume_sum(q, k, zd) == svol


def test_block_triangular_maps_preserve_levels():
    # Maps with unimodular upper-triangular leading block, integer blocks and
    # offset preserve integrality up to the block size; invertible leading
    # block preserves generality.
    rng = random.Random(14)
    for _ in range(6):
        d = rng.randint(2, 3)
        poly = moment_simplex(rng, d, spread=3)
        k = rng.randint(1, d)
        matrix = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        for i in range(k):
            for j in range(i + 1, k):
                matrix[i][j] += rng.randint(-1, 1)
        for i in range(k):
            for j in range(k, d):
                matrix[i][j] += rng.randint(-1, 1)
        for i in range(k, d):
            for j in range(k, d):
                if i != j:
                    matrix[i][j] += rng.randint(-1, 1)
        lower = [row[k:] for row in matrix[k:]]
        from latticeface.linalg import det

        if abs(det(lower)) != 1:
            continue
        phi = AffineMap.linear(matrix).then(AffineMap.translation([rng.randint(-2, 2)] * d))
        image = apply_affine(poly, phi)
        assert integrality_level(image).max_level >= k
        assert generality_level(image).max_level >= k


def _near_diagonal(rng):
    """Points with x_2 = x_1 on most of them: many faces miss general position at level 2."""
    d = rng.randint(3, 5)
    ts = sorted(rng.sample(range(-4, 9), rng.randint(d + 2, d + 5)))
    return Polytope(d, [[t, t + rng.choice((0, 0, 1))] + [rng.randint(-3, 3) for _ in range(d - 2)]
                        for t in ts])


def _perturbed_moment(rng):
    """Moment-curve points with one coordinate perturbed: the levels above it may fail."""
    d = rng.randint(2, 4)
    j = rng.randrange(1, d)
    ts = rng.sample(range(-3, 4), rng.randint(d + 1, d + 3))
    pts = [[t**e for e in range(1, d + 1)] for t in ts]
    for p in pts:
        p[j] += rng.randint(-1, 1)
    return Polytope(d, pts)


def _reduction_instances(rng, count):
    """``count`` polytopes, in turn near-diagonal, perturbed moment-curve,
    perturbed moment-curve lifted by an integer graph coordinate (embedded),
    and the hulls of random lattice points."""
    def random_points():
        d = rng.randint(2, 4)
        n = rng.randint(d + 1, d + 4)
        return Polytope(d, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)])

    families = (lambda: _near_diagonal(rng), lambda: _perturbed_moment(rng),
                lambda: embed_with_graph_coordinate(rng, _perturbed_moment(rng)), random_points)
    return [families[i % 4]() for i in range(count)]


def _outcome(reduce, poly, k):
    try:
        return reduce(poly, k)
    except (HypothesisError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_reduction_matches_rehulling_oracle():
    # Following P's faces through the shears must give the map and the image
    # that rebuilding and rescanning the polytope after every step gives, or
    # the same error.
    counts = {"instances": 0, "reduced": 0, "sheared": 0, "sheared twice": 0, "embedded": 0}
    for poly in _reduction_instances(random.Random(20), 160):
        counts["instances"] += 1
        for k in range(1, max(poly.dim, 1) + 1):
            want = _outcome(reduce_by_rehulling, poly, k)
            got = _outcome(reduce_to_full_general, poly, k)
            if isinstance(want[0], type):
                assert got == want, (poly, k)
                continue
            (phi, image, steps), (got_phi, got_image) = want, got
            assert (got_phi.matrix, got_phi.offset) == (phi.matrix, phi.offset), (poly, k)
            assert got_image.vertices == image.vertices, (poly, k)
            counts["reduced"] += 1
            counts["sheared"] += len(steps) > 1
            counts["sheared twice"] += len(steps) > 2
            counts["embedded"] += steps[0] != AffineMap.identity(poly.ambient_dim)
    assert counts["instances"] >= 150 and counts["reduced"] >= 100, counts
    assert counts["sheared"] >= 20 and counts["sheared twice"] >= 3, counts
    assert counts["embedded"] >= 20, counts


def test_reduction_searches_only_the_levels_it_shears(monkeypatch):
    # A level whose directions all have a nonzero first entry is already
    # general, and its search would give w = (1, 0, .., 0), the identity shear:
    # the reduction skips it, so it searches exactly where rebuilding after
    # every shear shears, and every vector it finds moves something.
    found = []
    search = reduction.find_generic_integer_vector
    monkeypatch.setattr(reduction, "find_generic_integer_vector",
                        lambda vectors: found.append(search(vectors)) or found[-1])
    sheared = 0
    for poly in _reduction_instances(random.Random(22), 80):
        for k in range(1, max(poly.dim, 1) + 1):
            want = _outcome(reduce_by_rehulling, poly, k)
            found.clear()
            got = _outcome(reduce_to_full_general, poly, k)
            if isinstance(want[0], type):
                assert got == want, (poly, k)
                continue
            assert len(found) == len(want[2]) - 1, (poly, k)
            assert all(any(w[1:]) for w in found), (poly, k)
            sheared += bool(found)
    assert sheared >= 10, sheared


def test_reduction_builds_one_polytope_and_scans_twice(monkeypatch):
    # Rebuilding after every step would build the mapped P, its projection
    # and one polytope per shear, and scan each; the reduction builds only
    # the image and scans only P and the image.
    rng = random.Random(21)
    cases = []
    for _ in range(30):  # embedded off the origin, with up to three shears
        lifted = embed_with_graph_coordinate(rng, _near_diagonal(rng))
        poly = lifted.translate([rng.randint(-3, 3) for _ in range(lifted.ambient_dim)])
        for k in range(1, max(poly.dim, 1) + 1):
            want = _outcome(reduce_by_rehulling, poly, k)
            if not isinstance(want[0], type):
                cases.append((poly, k, want[2]))
    built, scans = [], []
    init, scan = Polytope.__init__, integrality._level_scan
    monkeypatch.setattr(Polytope, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    monkeypatch.setattr(integrality, "_level_scan", lambda p, *tests: scans.append(p) or scan(p, *tests))
    monkeypatch.setattr(reduction, "apply_affine", None)
    for poly, k, steps in cases:
        built.clear()
        scans.clear()
        _, image = reduce_to_full_general(poly, k)
        assert built == ([] if image is poly else [image]), (poly, k)
        assert scans == ([poly] if image is poly else [poly, image]), (poly, k)
    assert sum(len(steps) > 2 and steps[0] != AffineMap.identity(poly.ambient_dim)
               for poly, _, steps in cases) >= 3
