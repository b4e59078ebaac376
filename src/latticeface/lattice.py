"""Sublattices of Z^D: saturation, projection/kernel splitting, basis extension."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .linalg import (
    Matrix,
    common_denominator,
    det,
    hermite_coordinates,
    hnf,
    hnf_basis,
    identity,
    int_kernel,
    integer_rref,
    inverse,
    matmul,
    rank,
    solve,
    transpose,
)


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^D held as a canonical Hermite-form row basis.

    The basis rows are linearly independent integer vectors; canonical form
    makes equality of sublattices plain tuple equality.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(ambient_dim: int, rows: Sequence[Sequence[int]]) -> "Sublattice":
        """Sublattice generated by integer rows (canonicalized, zero rows dropped)."""
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("generator length does not match ambient dimension")
            if any(Fraction(x).denominator != 1 for x in row):
                raise ValueError("sublattice generators must be integer vectors")
        basis = hnf_basis([[int(x) for x in row] for row in rows])
        return Sublattice(ambient_dim, tuple(tuple(row) for row in basis))

    @staticmethod
    def standard(ambient_dim: int) -> "Sublattice":
        return Sublattice(ambient_dim, tuple(tuple(row) for row in identity(ambient_dim)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, point: Sequence[Fraction | int]) -> bool:
        """Whether the point is an integer combination of the basis rows."""
        if len(point) != self.ambient_dim:
            raise ValueError("point dimension mismatch")
        if any(x.denominator != 1 for x in point):
            return False
        return hermite_coordinates(self._hermite_pivots, [x.numerator for x in point]) is not None

    @cached_property
    def _hermite_pivots(self) -> list[tuple[int, list[int]]]:
        """The rows of the Hermite basis, each with its pivot column."""
        return [(next(j for j, x in enumerate(row) if x), row) for row in hnf_basis(self.basis)]

    @cached_property
    def pivot_minor(self) -> tuple[list[int], int]:
        """The pivot columns J of the basis B and |det B_J|, which is the last
        pivot of its fraction-free elimination."""
        return integer_rref(self.basis)[1:]

    def coordinates(self, point: Sequence[Fraction | int]) -> list[Fraction] | None:
        """Rational coordinates of a point in the basis rows, or None if outside the span."""
        if len(point) != self.ambient_dim:
            raise ValueError("point dimension mismatch")
        if not self.basis:
            return [] if all(Fraction(x) == 0 for x in point) else None
        return solve(transpose(self.basis), point)


class SplitLattice(NamedTuple):
    """Decomposition of a sublattice along the first k coordinates."""

    projection: Sublattice          # image in Z^k under dropping trailing coordinates
    kernel: Sublattice              # elements whose first k coordinates vanish
    adapted_basis: tuple[tuple[int, ...], ...]  # projection lifts first, kernel rows last


def saturate(span_basis: Matrix, ambient_dim: int | None = None) -> Sublattice:
    """The lattice of all integer points in the rational row span of the input.

    Rows must be linearly independent.  Computed by two nested integer-kernel
    passes, which realizes the saturation exactly.
    """
    rows = list(span_basis)
    if ambient_dim is None:
        if not rows:
            raise ValueError("ambient_dim required for an empty span")
        ambient_dim = len(rows[0])
    if rows and rank(rows) != len(rows):
        raise ValueError("span basis rows are linearly dependent")
    if not rows:
        return Sublattice(ambient_dim, ())
    constraints = int_kernel(common_denominator(rows)[1], ncols=ambient_dim)
    basis = int_kernel(constraints, ncols=ambient_dim)
    return Sublattice.from_rows(ambient_dim, basis)


def split(lattice: Sublattice, k: int) -> SplitLattice:
    """Split a sublattice into its projection to the first k coordinates and
    the kernel of that projection, with an adapted basis realizing both."""
    d = lattice.ambient_dim
    if not 0 <= k <= d:
        raise ValueError(f"k must lie in [0, {d}], got {k}")
    basis = [list(row) for row in lattice.basis]
    heads = [row[:k] for row in basis]
    h, u = hnf(heads) if basis else ([], [])
    proj_rows = [row for row in h if any(row)]
    s = len(proj_rows)
    adapted = matmul(u, basis) if basis else []
    projection = Sublattice(k, tuple(tuple(row) for row in proj_rows))
    kernel = Sublattice.from_rows(d, adapted[s:])
    return SplitLattice(projection, kernel, tuple(tuple(row) for row in adapted))


def extend_basis(lattice: Sublattice) -> list[list[int]]:
    """Extend a saturated sublattice basis to a basis of Z^D.

    Returns a unimodular D x D matrix whose first ``rank`` rows are the basis.
    """
    d = lattice.ambient_dim
    r = lattice.rank
    if r == 0:
        return identity(d)
    basis = [list(row) for row in lattice.basis]
    h, u = hnf(transpose(basis))
    top = [row for row in h if any(row)]
    if top != identity(r):
        raise ValueError("sublattice is not saturated in Z^D")
    # basis @ U^T = [I | 0], so (U^{-1})^T is unimodular with the basis on top.
    ext = transpose(inverse(u))
    result = [[int(x) for x in row] for row in ext]
    if result[:r] != basis or abs(det(result)) != 1:
        raise RuntimeError("basis extension is not unimodular with the basis on top")
    return result
