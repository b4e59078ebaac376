"""Integrality and general-position certificates for subspaces, affine spaces,
and every dimension level of a polytope's face lattice.

A subspace U of dimension r is general when it surjects onto the leading r
coordinates, i.e. the pivots of its rref are the columns 0..r-1, so U is the
graph of A in the rref [I | A]; it is integral when its lattice surjects onto
Z^r, i.e. it is general with A integral.  p + U is integral when U is and
p - sum_i p_i row_i is integral.  A polytope is k-integral (k-general) when
every face of dimension at most k has an integral (general) affine hull, so
its hypotheses read only those faces; its levels read every face.  ``require``
raises ``HypothesisError``, which lives here, when one of them fails.

Every test runs in integers on a ``linalg.IntegerFlat`` (den * p and
scale * rref): U is integral when it is general and scale divides every row,
and p + U when den * scale also divides scale * (den p) - sum_i (den p)_i row_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .linalg import IntegerFlat, common_denominator, integer_rref
from .polytope import Face, Point, Polytope


class HypothesisError(ValueError):
    """A computation's hypotheses fail for the given input; the message names
    the unmet hypothesis and, when there is one, its witness."""


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
    """point + span(lin_basis) in integers; the rows are cleared to a common
    denominator first, which leaves the rref unchanged."""
    rows, pivots, scale = integer_rref(common_denominator(lin_basis)[1])
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


_TESTS = ((_integral, "is not affinely integral"), (_general, "is not in affinely general position"))


def _level_scan(poly: Polytope, integral: int, general: int) -> tuple[LevelCertificate | None, ...]:
    """The first failing face of each test up to its level (-1 asks nothing),
    or None when every face of dimension <= that level passes: one walk up the
    face lattice, which reads no face above the larger level and stops once
    each test has failed or reached its level.  Level 0 is read off the
    cleared vertices (the first one that is not integral), so a scan to level
    0 builds no face lattice."""
    if poly.is_empty:
        raise ValueError("empty polytope has no level certificate")
    found: list[LevelCertificate | None] = [None, None]
    den, ints = poly.integer_vertices  # every vertex is general, and integral when den divides it
    if integral >= 0 and den > 1:
        i = next(i for i, row in enumerate(ints) if any(x % den for x in row))
        found[0] = LevelCertificate(-1, Face((i,), 0), (poly.vertices[i],), _TESTS[0][1])
    for ell in range(1, max(integral, general) + 1):
        live = [(i, *_TESTS[i]) for i, top in enumerate((integral, general))
                if found[i] is None and ell <= top]
        if not live:
            break
        for face in poly.faces(ell):
            flat = poly.face_flat(face)
            for i, test, reason in live:
                if found[i] is None and not test(flat):
                    found[i] = LevelCertificate(ell - 1, face, poly.face_vertices(face), reason)
            if all(found[i] for i, _, _ in live):
                break
    return tuple(found)


class Hypotheses(NamedTuple):
    """The level hypotheses asked of P: each one's name and whether it holds,
    integrality first, and the text of the first unmet one, ``polytope is not
    <name>: <witness>``."""

    conditions: tuple[tuple[str, bool], ...]
    witness: str | None


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
    position" at every k.  One scan reads only the faces of dimension at most
    the levels asked, and only the vertices when those are at most 0."""
    scan = _level_scan(poly, integral, general)
    asked = [(lvl, c, gen) for lvl, c, gen in zip((integral, general), scan, (False, True)) if lvl >= 0]
    conditions = tuple((_name(lvl, poly.dim, gen), c is None) for lvl, c, gen in asked)
    witness = next((unmet(lvl, poly.dim, c.describe_witness(), gen) for lvl, c, gen in asked if c), None)
    return Hypotheses(conditions, witness)


def require(poly: Polytope, integral: int = -1, general: int = -1) -> Hypotheses:
    """``certify``'s record when every requested level holds; otherwise raise
    ``HypothesisError`` with the text of the first unmet one."""
    record = certify(poly, integral, general)
    if record.witness is not None:
        raise HypothesisError(record.witness)
    return record


def level_certificates(poly: Polytope) -> tuple[LevelCertificate, LevelCertificate]:
    """The integrality and the generality level of P, from one face scan."""
    return tuple(cert or LevelCertificate(poly.dim) for cert in _level_scan(poly, poly.dim, poly.dim))


def integrality_level(poly: Polytope) -> LevelCertificate:
    """Largest k such that every face of dimension <= k is affinely integral."""
    return _level_scan(poly, poly.dim, -1)[0] or LevelCertificate(poly.dim)


def generality_level(poly: Polytope) -> LevelCertificate:
    """Largest k such that every face of dimension <= k is in affinely general position."""
    return _level_scan(poly, -1, poly.dim)[1] or LevelCertificate(poly.dim)
