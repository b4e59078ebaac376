"""Random polytope generators shared by the property and acceptance tests.

Fully integral simplices come from the moment curve t -> (t, t^2, ..., t^d)
with distinct integer parameters (certified at generation time, never assumed).
Larger families are built as products and cones of those, pushed around by
level-preserving unimodular maps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from latticeface import AffineMap, Polytope, apply_affine, generality_level, integrality_level


def moment_simplex(rng: random.Random, d: int, spread: int = 4) -> Polytope:
    """A certified fully integral, fully general d-simplex on the moment curve."""
    while True:
        ts = rng.sample(range(-spread, spread + 1), d + 1)
        poly = Polytope(d, [tuple(t**j for j in range(1, d + 1)) for t in ts])
        if (
            integrality_level(poly).max_level == d
            and generality_level(poly).max_level == d
        ):
            return poly


def random_integral_simplex(rng: random.Random, d: int, box: int = 5, fully_general: bool = True) -> Polytope:
    """A random integral d-simplex, optionally certified fully general."""
    while True:
        pts = [tuple(rng.randint(-box, box) for _ in range(d)) for _ in range(d + 1)]
        poly = Polytope(d, pts)
        if poly.dim != d or len(poly.vertices) != d + 1:
            continue
        if fully_general and generality_level(poly).max_level != d:
            continue
        return poly


def point_mix(rng: random.Random, d: int, case: int) -> tuple[int, list]:
    """An ambient dimension and a list of points whose hull has dimension at
    most d: integer, rational or {-1, 0, 1} coordinates by ``case % 3``, with
    the centroid and two duplicates added, embedded by an affine map into one
    or two more dimensions when ``case % 6 >= 3``."""
    n = rng.randint(d + 1, d + 4)
    if case % 3 == 0:
        pts = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(n)]
    elif case % 3 == 1:
        pts = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
               for _ in range(n)]
    else:  # coordinates in {-1, 0, 1}: collinear triples, many points per facet
        pts = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(n + d)]
    # The centroid lies in the relative interior; then two duplicates.
    pts.append([Fraction(sum(c)) / len(pts) for c in zip(*pts)])
    pts += rng.sample(pts, 2)
    rng.shuffle(pts)
    ambient = d
    if case % 6 >= 3:
        ambient = d + rng.randint(1, 2)
        lift = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(ambient)]
        shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ambient)]
        pts = [[sum(a * x for a, x in zip(row, p)) + t for row, t in zip(lift, shift)]
               for p in pts]
    return ambient, pts


def product_polytope(p: Polytope, q: Polytope) -> Polytope:
    return Polytope(
        p.ambient_dim + q.ambient_dim,
        [u + v for u in p.vertices for v in q.vertices],
    )


def cone_polytope(p: Polytope, apex) -> Polytope:
    """Cone over p placed in the hyperplane where the new last coordinate is 0."""
    base = [v + (0,) for v in p.vertices]
    return Polytope(p.ambient_dim + 1, base + [tuple(apex)])


def upper_unimodular_map(rng: random.Random, dim: int, shears: int = 2, bound: int = 1) -> AffineMap:
    """A random upper-triangular unimodular integer map with integer offset.

    Maps of this shape preserve every integrality and generality level.
    """
    matrix = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(shears):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i >= j:
            continue
        matrix[i][j] += rng.choice([-bound, bound])
    offset = [rng.randint(-2, 2) for _ in range(dim)]
    return AffineMap.linear(matrix).then(AffineMap.translation(offset))


def embed_with_graph_coordinate(rng: random.Random, p: Polytope) -> Polytope:
    """Embed x -> (x, u . x) into one more dimension; levels are unchanged
    because the leading coordinates (the only ones the level conditions read)
    are untouched and lattice points stay in bijection."""
    u = [rng.randint(-2, 2) for _ in range(p.ambient_dim)]
    return Polytope(
        p.ambient_dim + 1,
        [v + (sum(c * x for c, x in zip(u, v)),) for v in p.vertices],
    )


def certified_pool(rng: random.Random, count: int, max_dim: int = 4):
    """Yield ``count`` integral polytopes with their certified integrality level.

    Construction: moment-curve simplices, their products and cones, dilates,
    and upper-unimodular images; every instance is re-certified, never trusted.
    """
    out = []
    while len(out) < count:
        kind = rng.randrange(6)
        if kind == 0:
            d = rng.randint(2, max_dim)
            poly = moment_simplex(rng, d, spread=3 if d >= 4 else 4)
        elif kind == 1:
            d = rng.randint(2, min(3, max_dim))
            poly = apply_affine(moment_simplex(rng, d), upper_unimodular_map(rng, d))
        elif kind == 2:
            a = rng.randint(1, max_dim - 1)
            b = rng.randint(1, min(2, max_dim - a))
            poly = product_polytope(
                moment_simplex(rng, a, spread=3), moment_simplex(rng, b, spread=3)
            )
        elif kind == 3:
            a = rng.randint(1, min(3, max_dim - 1))
            base = moment_simplex(rng, a, spread=3)
            apex = tuple(rng.randint(-2, 2) for _ in range(a)) + (rng.randint(1, 2),)
            poly = cone_polytope(base, apex)
        elif kind == 4:
            d = rng.randint(2, min(3, max_dim))
            poly = moment_simplex(rng, d).dilate(rng.randint(2, 3))
        else:
            d = rng.randint(2, min(3, max_dim))
            poly = random_integral_simplex(rng, d, box=4)
        if poly.dim > max_dim or poly.dim < 1:
            continue
        out.append((poly, integrality_level(poly).max_level))
    return out
