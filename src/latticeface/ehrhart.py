"""Ehrhart polynomials by one algorithm, the slice formula for k-integral
polytopes at 0 <= k <= dim P, and the codimension-1 counting identity.

Interpolation of point counts, and of interior point counts at negative
dilates by Ehrhart-Macdonald reciprocity, is the formula at k = 0 and the
projection closed form for fully integral polytopes is the formula at k = dim P.
Every interpolation, of P's slices or of one slice, is ``_interpolate_counts``,
and ``ehrhart_polynomial`` is the one reader of the method names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .integrality import certify, integrality_level, require
from .lattice import Sublattice
from .linalg import solve
from .polytope import Polytope, _fibre_levels, _hrep_rows, _run_walk, cell_budget
from .report import Report, format_rational
from .volume import Slice, iter_slices, lin_lattice, normalized_volume


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Exact polynomial m -> #(mP intersect Z^D); coefficients constant-first."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(Fraction(c) for c in self.coefficients)
        )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, m) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * m + c
        return total

    def __add__(self, other: "EhrhartPolynomial") -> "EhrhartPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return EhrhartPolynomial(tuple(merged))

    def __str__(self) -> str:
        terms = []
        for j in range(self.degree, -1, -1):
            c = self.coefficients[j]
            if c == 0 and self.degree > 0:
                continue
            mono = "1" if j == 0 else ("m" if j == 1 else f"m^{j}")
            if j == 0:
                terms.append(str(format_rational(c)))
            elif c in (1, -1):
                terms.append(mono if c == 1 else f"-{mono}")
            else:
                terms.append(f"{format_rational(c)}*{mono}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def as_list(self) -> list:
        return [format_rational(c) for c in self.coefficients]


def count_points(poly: Polytope, m: int) -> int:
    """Number of lattice points in the m-th dilate of P, counted without
    listing them, within the cell budget (``polytope.cell_budget``)."""
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    return sum(poly.lattice_point_counts(scale=m).values())


def ehrhart_interpolated(poly: Polytope) -> EhrhartPolynomial:
    """Exact coefficients for integral P: the slice formula at k = 0, which
    interpolates L_P at d + 1 nodes, m = 1, 2, ... and m = -1, -2, ...
    (``ehrhart_from_slices``)."""
    return ehrhart_from_slices(poly, 0)


def _reciprocity_nodes(dim: int) -> list[tuple[int, bool]]:
    """The dim + 1 interpolation nodes of the Ehrhart polynomial of a
    dim-polytope Q, as (m, interior): mQ for m = 1..dim//2 + 1, then, for the
    node -m by Ehrhart-Macdonald reciprocity, relint(mQ) for m = 1..(dim + 1)//2."""
    return [(m, False) for m in range(1, dim // 2 + 2)] + [(m, True) for m in range(1, (dim + 1) // 2 + 1)]


def _interpolate_counts(dim: int, counts: list[int]) -> list[Fraction]:
    """Coefficients, constant first, of the Ehrhart polynomial of an integral
    dim-polytope Q from its lattice-point counts at ``_reciprocity_nodes(dim)``,
    where L_Q(-m) = (-1)^dim #(relint(mQ) cap Z^D).  The nodes exclude 0, and
    the constant term is the value at 0, which is 1 for every integral
    polytope: an independent consistency anchor."""
    nodes = [(-m if interior else m) for m, interior in _reciprocity_nodes(dim)]
    values = [(-1) ** dim * c if m < 0 else c for m, c in zip(nodes, counts)]
    coeffs = solve([[m**j for j in range(dim + 1)] for m in nodes], values)
    if coeffs is None or coeffs[0] != 1:
        raise RuntimeError("Ehrhart polynomial of an integral polytope has a constant term other than 1")
    return coeffs


def ehrhart_from_slices(poly: Polytope, k: int) -> EhrhartPolynomial:
    """Ehrhart polynomial of a k-integral polytope, for any 0 <= k <= dim P.

    Coefficients up to degree k are volumes of projections, the point getting
    1; the higher ones come from summing the slice Ehrhart polynomials (each
    minus its constant 1) over the lattice points of the projection to the
    first k coordinates, then shifting by m^k.  At k = dim P no point is counted.
    The slice polynomials are interpolated at m = 1, 2, ... and, by reciprocity,
    L_Q(-m) = (-1)^dim Q #(relint(mQ) cap Z^D), at m = -1, -2, ...
    """
    if poly.is_empty:
        raise ValueError("empty polytope has no Ehrhart polynomial")
    if not 0 <= k <= poly.dim:
        raise ValueError(f"k must lie in [0, {poly.dim}], got {k}")
    require(poly, integral=k)
    return _slice_formula(poly, k)


def _slice_formula(poly: Polytope, k: int) -> EhrhartPolynomial:
    """``ehrhart_from_slices`` for P known to be k-integral, unchecked."""
    d = poly.dim
    coeffs = [Fraction(1)] + [
        normalized_volume(poly.project(j), Sublattice.standard(j)) for j in range(1, k + 1)
    ]
    if k < d:
        # The m-th dilate of the slice over y is mP intersected with prefix m*y
        # (its relative interior too), so one count of mP by prefix serves every
        # slice at once.  The slice over each lattice point y of the projection
        # is integral, so y is a key of the m = 1 count; a boundary slice is one
        # point and adds nothing, and every other slice has dimension d - k.
        nodes = _reciprocity_nodes(d - k)
        counts = [poly.lattice_point_counts(scale=m, k=k, interior=interior) for m, interior in nodes]
        coeffs += [Fraction(0)] * (d - k)
        for y, points in counts[0].items():
            if points == 1:
                continue
            values = [c.get(tuple(m * t for t in y), 0) for (m, _), c in zip(nodes, counts)]
            for j, c in enumerate(_interpolate_counts(d - k, values)[1:], k + 1):
                coeffs[j] += c
    return EhrhartPolynomial(tuple(coeffs))


def iter_slice_polynomials(
    poly: Polytope, k: int
) -> Iterator[tuple[Slice, EhrhartPolynomial | None]]:
    """Each term of ``iter_slices(poly, k)`` with the Ehrhart polynomial of its
    piece, or None when the piece is not integral.

    The polynomial is ``ehrhart_interpolated(piece)``, at the same nodes, but
    each count walks the coordinates k..D-1 of the piece through the rows of
    the projections of P to the first k + 1..D coordinates, with the piece's
    prefix substituted (``polytope._fibre_levels``).  Those rows are read
    once, at the first slice that needs them, so no slice builds hulls of its
    projections.
    """
    systems = None
    for s in iter_slices(poly, k):
        den, vertices = s.piece._integer_vertices
        d = s.piece.dim
        if den != 1:
            yield s, None
        elif d == 0:
            yield s, EhrhartPolynomial((Fraction(1),))
        else:
            if systems is None:  # once, after iter_slices has checked its input
                limit = cell_budget()
                systems = [
                    [(c[:k], c[k:], b) for c, b, _ in _hrep_rows(poly.project(j).hrep) if c[-1]]
                    for j in range(k + 1, poly.ambient_dim + 1)
                ]
            levels = _fibre_levels(systems, vertices[0][:k], [v[k:] for v in vertices], d)
            counts = [_run_walk(levels, m, limit, interior) for m, interior in _reciprocity_nodes(d)]
            yield s, EhrhartPolynomial(tuple(_interpolate_counts(d, counts)))


def ehrhart_from_projections(poly: Polytope) -> EhrhartPolynomial:
    """Closed form for fully integral P: coefficient j is the volume of the
    projection to the first j coordinates, normalized to Z^j; the slice
    formula at k = dim P."""
    return ehrhart_from_slices(poly, poly.dim)


EHRHART_METHODS = ("auto", "interpolate", "k-integral", "fully-integral")


def ehrhart_polynomial(
    poly: Polytope, method: str = "auto", k: int | None = None
) -> tuple[str, int | None, EhrhartPolynomial]:
    """(method, level, polynomial): the Ehrhart polynomial by the concrete
    method and level that ``method`` and ``k`` ask for.

    "auto" takes the projection closed form ("fully-integral") when P is fully
    integral and otherwise the slice formula ("k-integral") at P's
    integrality level; "k-integral" without k uses that level too.  The level
    is None for the two methods that take none.  One integrality scan at
    most: the scan that picks a level also certifies it.
    """
    if method not in EHRHART_METHODS:
        raise ValueError(f"unknown Ehrhart method {method!r}")
    if method == "interpolate":
        return method, None, ehrhart_interpolated(poly)
    if method == "fully-integral":
        return method, None, ehrhart_from_projections(poly)
    if method == "k-integral" and k is not None:
        return method, k, ehrhart_from_slices(poly, k)
    require(poly, integral=0)
    level = integrality_level(poly).max_level
    if method == "auto" and level == poly.dim:
        return "fully-integral", None, _slice_formula(poly, level)
    return "k-integral", level, _slice_formula(poly, level)


def verify_codim1_identity(poly: Polytope) -> Report:
    """Check i(P) = i(projection dropping one dimension) + Vol(P) for
    (d-1)-integral polytopes; reports both sides either way."""
    if poly.is_empty or poly.dim < 1:
        raise ValueError("identity requires a polytope of dimension >= 1")
    d = poly.dim
    hypotheses = certify(poly, integral=d - 1)
    lhs = Fraction(count_points(poly, 1))
    proj_count = count_points(poly.project(d - 1), 1)
    vol = normalized_volume(poly, lin_lattice(poly))
    return Report(
        identity="codim1-count",
        hypotheses=hypotheses.conditions,
        lhs=lhs,
        rhs=proj_count + vol,
        witness=hypotheses.witness,
        details={"projection_count": proj_count, "volume": format_rational(vol)},
    )
