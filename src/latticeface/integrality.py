"""Integrality and general-position certificates for subspaces, affine spaces,
and every dimension level of a polytope's face lattice.

A subspace U of dimension r is general when it surjects onto the leading r
coordinates, i.e. the pivots of its rref are the columns 0..r-1, so U is the
graph of A in the rref [I | A]; it is integral when its lattice surjects onto
Z^r, i.e. it is general with A integral.  p + U is integral when U is and
p - sum_i p_i row_i is integral.  A polytope is k-integral (k-general) when
every face of dimension at most k has an integral (general) affine hull.

Every test runs in integers on a ``linalg.IntegerFlat`` (den * p and
scale * rref): U is integral when it is general and scale divides every row,
and p + U when den * scale also divides scale * (den p) - sum_i (den p)_i row_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import HypothesisError
from .linalg import IntegerFlat, clear_rows, common_denominator, integer_rref
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
        pts = ", ".join("(" + ", ".join(map(str, p)) + ")" for p in self.witness_vertices or ())
        return f"face conv{{{pts}}} {self.reason}"


def _general(flat: IntegerFlat) -> bool:
    """Whether the pivots are the leading columns 0..l-1."""
    return not flat.pivots or flat.pivots[-1] == len(flat.pivots) - 1


def _integral(flat: IntegerFlat) -> bool:
    """Whether the flat is integral: it is general, scale divides every row,
    and den * scale divides scale * base - sum_i base_i * row_i, which is
    den * scale times the point of the flat with leading zeros."""
    den, base, rows, _, scale = flat
    if not _general(flat) or any(x % scale for row in rows for x in row):
        return False
    return den == 1 or all(
        (scale * b - sum(p * row[j] for p, row in zip(base, rows))) % (den * scale) == 0
        for j, b in enumerate(base)
    )


def _basis_flat(lin_basis, point=()) -> IntegerFlat:
    """point + span(lin_basis) in integers; each row's denominators are cleared
    first, which leaves the rref unchanged."""
    rows, pivots, scale = integer_rref(clear_rows(lin_basis)[1])
    if len(pivots) != len(rows):
        raise ValueError("basis rows are linearly dependent")
    den, (base,) = common_denominator([point])
    return IntegerFlat(den, base, rows, pivots, scale)


def subspace_is_integral(lin_basis) -> bool:
    """Whether the rational row span U satisfies: lattice of U projects onto Z^dim(U)."""
    return _integral(_basis_flat(lin_basis))


def subspace_in_general_position(lin_basis) -> bool:
    """Whether the row span surjects onto the leading dim(U) coordinates."""
    return _general(_basis_flat(lin_basis))


def affine_is_integral(point, lin_basis) -> bool:
    """Whether the affine space point + span(lin_basis) is integral:
    it carries a lattice point and its direction space is integral."""
    return _integral(_basis_flat(lin_basis, point))


def _vertex_certificate(poly: Polytope) -> LevelCertificate | None:
    """The level-0 integrality failure, or None when P is integral: the first
    vertex with a cleared coordinate that den does not divide; every vertex is general."""
    den, ints = poly._integer_vertices
    if den == 1:
        return None
    i = next(i for i, row in enumerate(ints) if any(x % den for x in row))
    return LevelCertificate(-1, Face((i,), 0), (poly.vertices[i],), "is not affinely integral")


def _level_scan(poly: Polytope, integral: bool, general: bool) -> tuple[LevelCertificate, ...]:
    """Both certificates from one walk up the face lattice above the vertices,
    which stops once each requested test has failed; a test not requested is
    skipped and reads as passing."""
    if poly.is_empty:
        raise ValueError("empty polytope has no level certificate")
    found: list[LevelCertificate | None] = [_vertex_certificate(poly) if integral else None, None]
    for ell, face in ((ell, f) for ell in range(1, poly.dim + 1) for f in poly.faces(ell)):
        if (found[0] or not integral) and (found[1] or not general):
            break
        flat, pts = poly.face_flat(face), poly.face_vertices(face)
        if integral and not found[0] and not _integral(flat):
            found[0] = LevelCertificate(ell - 1, face, pts, "is not affinely integral")
        if general and not _general(flat):
            found[1] = LevelCertificate(ell - 1, face, pts, "is not in affinely general position")
    return tuple(cert or LevelCertificate(poly.dim) for cert in found)


class Hypotheses(NamedTuple):
    """The level hypotheses asked of P: each one's name and whether it holds,
    integrality first; the text of the first unmet one, ``polytope is not
    <name>: <witness>``; and the certificates of the face scan, or None when
    none ran."""

    conditions: tuple[tuple[str, bool], ...]
    witness: str | None
    certificates: tuple[LevelCertificate, LevelCertificate] | None


def unmet(level: int, dim: int, witness: str, general: bool = False) -> str:
    """The text that P is not ``level``-integral, or not in ``level``-general
    position when ``general``, shown by ``witness``."""
    return f"polytope is not {_name(level, dim, general)}: {witness}"


def _name(level: int, dim: int, general: bool) -> str:
    if general:
        return f"in {level}-general position"
    return "integral" if level == 0 else "fully integral" if level == dim else f"{level}-integral"


def certify(poly: Polytope, integral: int = -1, general: int = -1) -> Hypotheses:
    """Whether P is ``integral``-integral and in ``general``-general position
    (-1 asks nothing), each named by one rule: "integral" at level 0, "fully
    integral" at level dim P, "k-integral" otherwise, and "in k-general
    position" at every k.  A level >= 1 takes one face scan; a lone
    0-integrality requirement reads only the vertices."""
    if max(integral, general) < 1:
        certs = None
        found = _vertex_certificate(poly) if integral == 0 else None, None
    else:
        certs = found = _level_scan(poly, integral >= 0, general >= 0)
    conditions, witness = [], None
    for level, cert, gen in ((integral, found[0], False), (general, found[1], True)):
        if level < 0:
            continue
        holds = cert is None or cert.max_level >= level
        conditions.append((_name(level, poly.dim, gen), holds))
        if not holds and witness is None:
            witness = unmet(level, poly.dim, cert.describe_witness(), gen)
    return Hypotheses(tuple(conditions), witness, certs)


def require(poly: Polytope, integral: int = -1, general: int = -1) -> Hypotheses:
    """``certify``'s record when every requested level holds; otherwise raise
    ``HypothesisError`` with the text of the first unmet one."""
    record = certify(poly, integral, general)
    if record.witness is not None:
        raise HypothesisError(record.witness)
    return record


def level_certificates(poly: Polytope) -> tuple[LevelCertificate, LevelCertificate]:
    """The integrality and the generality level of P, from one face scan."""
    return _level_scan(poly, True, True)


def integrality_level(poly: Polytope) -> LevelCertificate:
    """Largest k such that every face of dimension <= k is affinely integral."""
    return _level_scan(poly, True, False)[0]


def generality_level(poly: Polytope) -> LevelCertificate:
    """Largest k such that every face of dimension <= k is in affinely general position."""
    return _level_scan(poly, False, True)[1]
