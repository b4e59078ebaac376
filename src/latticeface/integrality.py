"""Integrality and general-position certificates for subspaces, affine spaces,
and every dimension level of a polytope's face lattice.

A subspace U of dimension r is general when it surjects onto the leading r
coordinates, i.e. the pivots of its rref are the columns 0..r-1, so U is the
graph of A in the rref [I | A]; it is integral when its lattice surjects onto
Z^r, i.e. it is general with A integral.  p + U is integral when U is and
p - sum_i p_i row_i is integral.  A polytope is k-integral (k-general) when
every face of dimension at most k has an integral (general) affine hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import rref
from .polytope import Face, Point, Polytope

@dataclass(frozen=True)
class LevelCertificate:
    """Largest level k at which every face of dimension <= k passes the test.

    ``max_level`` is -1 when already the vertices fail.  For levels below the
    polytope dimension, ``witness`` is the (lexicographically first) failing
    face at max_level + 1 and ``reason`` names the violated condition.
    """

    max_level: int
    witness: Face | None = None
    witness_vertices: tuple[Point, ...] | None = None
    reason: str | None = None

    def describe_witness(self) -> str | None:
        if self.witness is None:
            return None
        pts = ", ".join(_point_str(p) for p in self.witness_vertices or ())
        return f"face conv{{{pts}}} {self.reason}"


def _point_str(p: Point) -> str:
    return "(" + ", ".join(str(x) for x in p) + ")"


def _pivots_lead(reduced) -> bool:
    """Whether the rref rows have their pivots in the leading columns."""
    return all(row[i] == 1 for i, row in enumerate(reduced))


def _flat_is_integral(base, reduced) -> bool:
    """Whether base + span(reduced) is integral, for rref rows with leading pivots."""
    base = [Fraction(x) for x in base]
    if any(x.denominator != 1 for x in base):  # the point of the flat with leading zeros
        base = [b - sum(p * row[j] for p, row in zip(base, reduced)) for j, b in enumerate(base)]
    return all(x.denominator == 1 for row in (*reduced, base) for x in row)


def _independent_rref(lin_basis) -> list[list[Fraction]]:
    rows = [list(r) for r in lin_basis]
    reduced, pivots = rref(rows)
    if len(pivots) != len(rows):
        raise ValueError("basis rows are linearly dependent")
    return reduced


def subspace_is_integral(lin_basis) -> bool:
    """Whether the rational row span U satisfies: lattice of U projects onto Z^dim(U)."""
    reduced = _independent_rref(lin_basis)
    return _pivots_lead(reduced) and all(x.denominator == 1 for row in reduced for x in row)


def subspace_in_general_position(lin_basis) -> bool:
    """Whether the row span surjects onto the leading dim(U) coordinates."""
    return _pivots_lead(_independent_rref(lin_basis))


def affine_is_integral(point, lin_basis) -> bool:
    """Whether the affine space point + span(lin_basis) is integral:
    it carries a lattice point and its direction space is integral."""
    reduced = _independent_rref(lin_basis)
    return _pivots_lead(reduced) and _flat_is_integral(point, reduced)


def face_hull(poly: Polytope, face: Face) -> tuple[Point, list[list[Fraction]]]:
    """Base point and a lin basis (reduced row form) of the face's affine hull."""
    pts = poly.face_vertices(face)
    base = pts[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    reduced, pivots = rref(diffs)
    return base, [reduced[i] for i in range(len(pivots))]


def _level_scan(poly: Polytope, integral: bool, general: bool) -> tuple[LevelCertificate, ...]:
    """Both certificates from one walk up the face lattice, which stops once each
    requested test has failed; a test not requested is skipped and reads as passing."""
    if poly.is_empty:
        raise ValueError("empty polytope has no level certificate")
    found: list[LevelCertificate | None] = [None, None]
    for ell, face in ((ell, f) for ell in range(poly.dim + 1) for f in poly.faces(ell)):
        base, lin = face_hull(poly, face)
        leads, pts = _pivots_lead(lin), poly.face_vertices(face)
        if integral and not found[0] and not (leads and _flat_is_integral(base, lin)):
            found[0] = LevelCertificate(ell - 1, face, pts, "is not affinely integral")
        if general and not leads:
            found[1] = LevelCertificate(ell - 1, face, pts, "is not in affinely general position")
        if (found[0] or not integral) and (found[1] or not general):
            break
    return tuple(cert or LevelCertificate(poly.dim) for cert in found)


def level_certificates(poly: Polytope) -> tuple[LevelCertificate, LevelCertificate]:
    """The integrality and the generality level of P, from one face scan."""
    return _level_scan(poly, True, True)


def integrality_level(poly: Polytope) -> LevelCertificate:
    """Largest k such that every face of dimension <= k is affinely integral."""
    return _level_scan(poly, True, False)[0]


def generality_level(poly: Polytope) -> LevelCertificate:
    """Largest k such that every face of dimension <= k is in affinely general position."""
    return _level_scan(poly, False, True)[1]
