"""Constructive affine maps: generic integer direction selection and the
reduction of a (k-1)-integral, k-general polytope to a full-dimensional one in
fully general position, preserving volume and slice-volume sums.

The reduction checks P's hypotheses up to level k, maps P's vertices to integer
rows and shears them level by level from k, reading each level's face
directions off P's own faces; it builds only the image as a hull, and
certifies it with one level scan.  When nothing moved, P is the image and is
not scanned again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .integrality import level_certificates, require
from .lattice import Sublattice, extend_basis, split
from .linalg import (
    common_denominator, det, dot, identity, integer_affine_hull, inverse, matmul, vec_mat,
)
from .polytope import Polytope
from .volume import affine_lattice_point, lin_lattice


@dataclass(frozen=True)
class AffineMap:
    """x -> offset + x @ matrix, acting on row vectors of coordinates."""

    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap.linear(identity(dim))

    @staticmethod
    def linear(matrix) -> "AffineMap":
        rows = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        return AffineMap(rows, tuple(Fraction(0) for _ in rows))

    @staticmethod
    def translation(shift) -> "AffineMap":
        off = tuple(Fraction(x) for x in shift)
        return AffineMap(tuple(tuple(map(Fraction, row)) for row in identity(len(off))), off)

    def apply_point(self, point) -> tuple[Fraction, ...]:
        moved = vec_mat([Fraction(x) for x in point], self.matrix)
        return tuple(m + o for m, o in zip(moved, self.offset))

    def then(self, other: "AffineMap") -> "AffineMap":
        """The composite map: first self, then other.  With the maps cleared to
        x -> (a_off + x @ a) / s and y -> (b_off + y @ b) / t, one integer
        product gives x -> (a_off @ b + s * b_off + x @ a @ b) / (s * t)."""
        s, (*a, a_off) = common_denominator([*self.matrix, self.offset])
        t, (*b, b_off) = common_denominator([*other.matrix, other.offset])
        *rows, offset = matmul([*a, a_off], b)
        offset = [x + s * y for x, y in zip(offset, b_off)]
        return AffineMap(
            tuple(tuple(Fraction(x, s * t) for x in row) for row in rows),
            tuple(Fraction(x, s * t) for x in offset),
        )

    def is_slice_volume_preserving(self, k: int) -> bool:
        """Structural check that the map preserves volumes and level-k slice sums:
        block-triangular with an upper-triangular unimodular leading k x k block,
        determinant-1 trailing block, and integer leading offset entries."""
        n = len(self.matrix)
        a = [row[:k] for row in self.matrix[:k]]
        lower_left = [row[:k] for row in self.matrix[k:]]
        b = [row[k:] for row in self.matrix[k:]]
        if any(x != 0 for row in lower_left for x in row):
            return False
        if any(self.matrix[i][j] != 0 for i in range(k) for j in range(k) if j < i):
            return False
        if any(x.denominator != 1 for row in a for x in row):
            return False
        if k and abs(det(a)) != 1:
            return False
        if n > k and det(b) != 1:
            return False
        return all(x.denominator == 1 for x in self.offset[:k])


def apply_affine(poly: Polytope, phi: AffineMap) -> Polytope:
    """Vertex-wise image of the polytope, re-extremalized."""
    return Polytope(poly.ambient_dim, [phi.apply_point(v) for v in poly.vertices])


def _ordered_candidates(limit: int) -> list[int]:
    out = [0]
    for t in range(1, limit + 1):
        out.extend((t, -t))
    return out


def find_generic_integer_vector(vectors) -> tuple[int, ...]:
    """The first integer vector w with w[0] = 1 and v . w != 0 for every v.

    Candidates (1, t_2, .., t_m) are enumerated by increasing max-norm of the
    tail, ties broken lexicographically with each coordinate ordered
    0, 1, -1, 2, -2, ...; the result is therefore deterministic.
    """
    # Cleared to integers: a positive multiple of v has the same zero products.
    vecs = common_denominator([[Fraction(x) for x in v] for v in vectors])[1]
    if not vecs:
        raise ValueError("at least one vector is required")
    m = len(vecs[0])
    for v in vecs:
        if len(v) != m:
            raise ValueError("vectors must share a common dimension")
        if all(x == 0 for x in v):
            raise ValueError("vectors must be nonzero")
    for norm in itertools.count(0):
        values = _ordered_candidates(norm)
        for tail in itertools.product(values, repeat=m - 1):
            if norm > 0 and max((abs(t) for t in tail), default=0) != norm:
                continue
            w = (1,) + tail
            if all(dot(v, w) != 0 for v in vecs):
                return w
        if m == 1:
            raise RuntimeError("the single-coordinate case always succeeds at norm 0")


def _embedding_basis(poly: Polytope, k: int) -> list[list[int]]:
    """Rows f_1..f_D: a staircase basis of the lattice of lin(P) adapted to the
    first k coordinates, completed to a rational basis of the ambient space."""
    big = poly.ambient_dim
    d = poly.dim
    lattice = lin_lattice(poly)
    parts = split(lattice, k)
    if parts.projection.rank != k:
        raise RuntimeError("projected lattice rank dropped despite k-generality")
    proj_basis = parts.projection.basis
    for i in range(k - 1):
        if proj_basis[i][i] != 1:
            raise RuntimeError("leading staircase pivots must be 1 for a (k-1)-integral P")
    top = [list(row) for row in parts.adapted_basis[:k]]
    middle = [list(row) for row in parts.kernel.basis]
    tail_lattice = Sublattice.from_rows(big - k, [row[k:] for row in middle])
    extension = extend_basis(tail_lattice)
    bottom = [[0] * k + list(row) for row in extension[d - k:]]
    return top + middle + bottom


def reduce_to_full_general(poly: Polytope, k: int) -> tuple[AffineMap, Polytope]:
    """An invertible affine map carrying P to a full-dimensional polytope in
    fully general position, preserving volume and the level-k slice-volume sum.

    Requires P (k-1)-integral and in k-general position.  The map's first
    step translates by -s for the lattice point s of aff(P), so that the image
    spans the leading coordinate subspace.  Returns the ambient map and the
    image polytope in R^dim(P); the image coordinates are the leading dim(P)
    coordinates of the mapped ambient space.
    """
    if poly.is_empty or poly.dim < 1:
        raise ValueError("reduction requires a polytope of dimension >= 1")
    d, big = poly.dim, poly.ambient_dim
    if not 0 < k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    shift = affine_lattice_point(poly)  # a hull without lattice points fails first
    require(poly, integral=k - 1, general=k)

    to_coords = AffineMap.linear(inverse(_embedding_basis(poly, k)))
    phi = AffineMap.translation([-x for x in shift]).then(to_coords)
    s, (*m, off) = common_denominator([*phi.matrix, phi.offset])  # phi: x -> (off + x @ m) / s
    den, ints = poly.integer_vertices
    den, rows = common_denominator([[Fraction(den * o + x, den * s) for o, x in zip(off, row)]
                                    for row in matmul(ints, m)])
    if any(row[j] != 0 for row in rows for j in range(d, big)):
        raise RuntimeError("image does not lie in the leading coordinate subspace")
    rows = [row[:d] for row in rows]

    # The shears are bijections, so P's faces and vertex order stand: each
    # level reads the (level+1)-faces' directions off the current rows.
    shears = identity(big)
    for level in range(k, d):
        directions = []
        for face in poly.faces(level + 1):
            # A positive multiple of the rref rows: the same generic vectors.
            _, _, flat, pivots, _ = integer_affine_hull(den, [rows[i] for i in face.vertex_indices])
            if pivots[:level] != list(range(level)):
                raise RuntimeError("face hull lost general position during reduction")
            directions.append(flat[level][level:])
        if all(v[0] for v in directions):  # already general: w = (1, 0, .., 0) shears nothing
            continue
        w = find_generic_integer_vector(directions)
        for row in (*rows, *shears):  # x_level <- w . x[level:d]
            row[level] = dot(w, row[level:d])

    if big == d and shears == identity(d) and (den, rows) == poly.integer_vertices:
        # Nothing moved, so P is the image: ``require`` certified every level
        # <= k, and each level above k was skipped, its pivot reads having
        # found every (level+1)-face of P general.
        image = poly
    else:
        image = Polytope(d, [[Fraction(x, den) for x in row] for row in rows])
        cert_int, cert_gen = level_certificates(image)
        if cert_gen.max_level < d:
            raise RuntimeError("reduction did not reach fully general position")
        if cert_int.max_level < k - 1:
            raise RuntimeError("reduction lost (k-1)-integrality")
    return phi.then(AffineMap.linear(shears)), image
