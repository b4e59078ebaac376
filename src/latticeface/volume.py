"""Normalized volumes relative to sublattices, triangulations, and the
slice-sum volume identity.

The slice-sum of a polytope at level k adds up, over the lattice points of its
projection to the first k coordinates, the volumes of the corresponding slices
measured in the kernel sublattice.  Under the right integrality/generality
hypotheses this reproduces the normalized volume exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, NamedTuple

from .integrality import HypothesisError, certify, require
from .lattice import Sublattice, saturate, split
from .linalg import integer_det, integer_solution, rank
from .polytope import Polytope
from .report import Report


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of a polytope into simplices on its own vertices."""

    simplices: tuple[tuple[int, ...], ...]


def lin_lattice(poly: Polytope) -> Sublattice:
    """The lattice of integer points in lin(P), i.e. aff(P) translated to 0."""
    if poly.is_empty:
        raise ValueError("empty polytope has no affine hull")
    return saturate(poly._flat.rows, ambient_dim=poly.ambient_dim)


def _cone_cells(poly: Polytope, face: int, dim: int, siblings: list[int] | None = None) -> list[int]:
    """Cells, as vertex masks, coning the lexicographically least vertex of the
    ``dim``-face ``face`` (a vertex mask) over the facets of ``face`` that miss
    it, read from the facets ``siblings`` of the face it came from
    (``Polytope._facets_of``); a simplex is its own cell."""
    if face.bit_count() == dim + 1:
        return [face]
    apex = 1 << min((v for v in range(len(poly.vertices)) if face >> v & 1),
                    key=poly.vertices.__getitem__)
    facets = poly._facets_of(face, dim, siblings)
    return [apex | cell for facet in facets if not facet & apex
            for cell in _cone_cells(poly, facet, dim - 1, facets)]


def triangulate(poly: Polytope) -> Triangulation:
    """A triangulation without new vertices, coning from lexicographic minima."""
    if poly.dim < 1:
        raise ValueError("triangulation requires dimension >= 1")
    indices = range(len(poly.vertices))
    cells = _cone_cells(poly, (1 << len(indices)) - 1, poly.dim)
    return Triangulation(tuple(sorted(tuple(v for v in indices if cell >> v & 1) for cell in cells)))


def triangulate_1general(poly: Polytope) -> Triangulation:
    """A triangulation into 1-general simplices.  Requires P in 1-general
    position, where every face has a unique vertex of minimal first coordinate
    (two would span an edge along which it is constant); that vertex is the
    lexicographic minimum ``triangulate`` cones from."""
    if poly.dim >= 1:
        require(poly, general=1)
    return triangulate(poly)


def normalized_volume(poly: Polytope, lattice: Sublattice) -> Fraction:
    """Volume of P in the measure where a fundamental cell of the lattice is 1.

    The lattice must span lin(P).  A polytope of dimension below the lattice
    rank has volume 0; a 0-dimensional polytope with a rank-0 lattice has
    volume 1 (counting measure).
    """
    if poly.is_empty:
        return Fraction(0)
    if poly.ambient_dim != lattice.ambient_dim:
        raise ValueError("ambient dimensions differ")
    d = poly.dim
    r = lattice.rank
    if d > r:
        raise ValueError("lattice does not span lin(P): rank too small")
    lin = poly._flat.rows  # a positive multiple of the rref of lin(P)
    if rank([*lattice.basis, *lin]) != r:
        raise ValueError("lattice does not span lin(P)")
    if d < r:
        return Fraction(0)
    if d == 0:
        return Fraction(1)
    # The edges E of a cell are C @ B in the lattice basis B, so at columns J
    # where B is nonsingular |det C| = |det E_J| / |det B_J|: one determinant
    # per cell.  J and |det B_J| belong to the lattice and are computed once.
    cols, minor = lattice.pivot_minor
    if integer_det([[row[c] for c in cols] for row in lin]) == 0:
        raise RuntimeError("lin(P) lies in the lattice span but its pivot columns do not chart it")
    # The integer vertices are den times the vertices: each |det| is den^d too large.
    den, ints = poly._integer_vertices
    total = 0
    for cell in triangulate(poly).simplices:
        base = ints[cell[0]]
        total += abs(integer_det([[ints[i][c] - base[c] for c in cols] for i in cell[1:]]))
    return Fraction(total, minor * factorial(d) * den**d)


def affine_lattice_point(poly: Polytope) -> list[int]:
    """A lattice point s of aff(P): the origin when aff(P) passes through 0.

    Raises when aff(P) carries no lattice point (then the slice-sum ranges
    over an empty index set and is not meaningful).
    """
    eqs = poly.hrep.equalities
    if all(b == 0 for _, b in eqs):
        return [0] * poly.ambient_dim
    shift = integer_solution([list(c) for c, _ in eqs], [b for _, b in eqs])
    if shift is None:
        raise HypothesisError("affine hull of P contains no lattice point")
    return shift


def center_at_lattice_point(poly: Polytope) -> Polytope:
    """P - s for the lattice point s of aff(P) (``affine_lattice_point``), so
    that 0 lies on aff(P); P itself when s = 0."""
    shift = affine_lattice_point(poly)
    return poly.translate([-x for x in shift]) if any(shift) else poly


class Slice(NamedTuple):
    """One term of a slice-volume sum."""

    point: tuple[int, ...]  # lattice point of the projection of P
    position: str           # "interior" or "boundary" in the projection of P
    piece: Polytope         # the slice of P over it
    volume: Fraction        # measured in the kernel sublattice; 0 when degenerate


def iter_slices(poly: Polytope, k: int) -> Iterator[Slice]:
    """The slices of P over the lattice points of its projection to the first k
    coordinates, in lexicographic order of the points.

    The lattice is the lattice of lin(P) (``lin_lattice``): a point y is
    visited when y - s[:k] lies in its projection, for the lattice point s of
    aff(P) (``affine_lattice_point``), and each slice is measured in its
    kernel.  Degenerate slices, of dimension below the kernel rank, have
    volume exactly 0.

    Each piece equals ``poly.slice_at(point)`` and is cut the same way, one
    ``axis_cut`` per coordinate, but each prefix is cut only once:
    ``chain[j]`` is the slice over y[:j] of the last point visited, and the
    next point (later in lexicographic order) keeps the chain up to the prefix
    the two points share.
    """
    if not 0 <= k <= poly.dim:
        raise ValueError(f"k must lie in [0, {poly.dim}], got {k}")
    shift = affine_lattice_point(poly)[:k]
    parts = split(lin_lattice(poly), k)
    projection = poly.project(k)
    chain = [poly]
    last: tuple[int, ...] = ()
    for y in projection.lattice_points():
        if not parts.projection.contains([c - s for c, s in zip(y, shift)]):
            continue
        j = next((i for i, (a, b) in enumerate(zip(last, y)) if a != b), len(last))
        del chain[j + 1:]
        for i in range(j, k):
            chain.append(chain[i].axis_cut(i, y[i]))
        last = y
        piece = chain[k]
        degenerate = piece.dim < parts.kernel.rank
        yield Slice(
            y,
            projection.classify_point(y),
            piece,
            Fraction(0) if degenerate else normalized_volume(piece, parts.kernel),
        )


def slice_volume_sum(poly: Polytope, k: int) -> Fraction:
    """Sum of kernel-normalized slice volumes over projected lattice points.

    The lattice is the lattice of lin(P).  For each point y of its projection
    lying in the projection of P, the slice of P over y is measured in its
    kernel (the lattice elements whose first k coordinates vanish).
    Degenerate slices of dimension below the kernel rank contribute exactly 0.
    For non-central P the points y are those with y - s[:k] in the projection
    of the lattice, for a lattice point s of aff(P).  The empty polytope sums to 0.
    """
    if poly.is_empty:
        return Fraction(0)
    return sum((s.volume for s in iter_slices(poly, k)), Fraction(0))


def verify_volume_slice_identity(poly: Polytope, k: int) -> Report:
    """Check Vol(P) against the level-k slice-volume sum, reporting hypotheses.

    The identity is guaranteed when P is (k-1)-integral and in k-general
    position with 0 < k < dim(P); the report records both sides either way.
    """
    d = poly.dim
    if not 0 < k < d:
        raise ValueError(f"k must lie strictly between 0 and dim(P)={d}, got {k}")
    hypotheses = certify(poly, integral=k - 1, general=k)
    return Report(
        identity="volume-slice-sum",
        hypotheses=hypotheses.conditions,
        lhs=normalized_volume(poly, lin_lattice(poly)),
        rhs=slice_volume_sum(poly, k),
        witness=hypotheses.witness,
    )
