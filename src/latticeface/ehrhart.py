"""Ehrhart polynomials by one algorithm, the slice formula for k-integral
polytopes at 0 <= k <= dim P, and the codimension-1 counting identity.

Interpolation of point counts, and of interior point counts at negative
dilates by Ehrhart-Macdonald reciprocity, is the formula at k = 0 and the
projection closed form for fully integral polytopes is the formula at k = dim P.
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
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"{format_rational(c)}*{mono}")
        return " + ".join(terms) if terms else "0"

    def as_list(self) -> list:
        return [format_rational(c) for c in self.coefficients]


def count_points(poly: Polytope, m: int, budget: int | None = None) -> int:
    """Number of lattice points in the m-th dilate of P."""
    if m < 1:
        raise ValueError("dilation factor must be a positive integer")
    return sum(poly.lattice_point_counts(scale=m, budget=budget).values())


def ehrhart_interpolated(poly: Polytope) -> EhrhartPolynomial:
    """Exact coefficients for integral P: the slice formula at k = 0, which
    interpolates L_P at d + 1 nodes, m = 1, 2, ... and m = -1, -2, ...
    (``ehrhart_from_slices``)."""
    return ehrhart_from_slices(poly, 0)


def _reciprocity_nodes(n: int) -> list[int]:
    """The n interpolation nodes m = 1..ceil(n/2) and m = -1..-floor(n/2): a
    negative node counts the relative interior of a small dilate
    (Ehrhart-Macdonald reciprocity) instead of a large dilate."""
    return [*range(1, (n + 1) // 2 + 1), *range(-1, -(n // 2) - 1, -1)]


def _interpolate_integral(nodes: list[int], values: list[int]) -> list[Fraction]:
    """Coefficients, constant first, of the polynomial taking values[i] at
    nodes[i], with degree below len(nodes).  The nodes exclude 0, and the
    constant term is the value at 0, which is 1 for every integral polytope:
    an independent consistency anchor."""
    n = len(nodes)
    coeffs = solve([[m**j for j in range(n)] for m in nodes], values)
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
        nodes = _reciprocity_nodes(d - k + 1)
        counts = [poly.lattice_point_counts(scale=abs(m), k=k, interior=m < 0) for m in nodes]
        sign = (-1) ** (d - k)
        coeffs += [Fraction(0)] * (d - k)
        for y, points in counts[0].items():
            if points == 1:
                continue
            values = [
                (sign if m < 0 else 1) * c.get(tuple(abs(m) * t for t in y), 0)
                for m, c in zip(nodes, counts)
            ]
            for j, c in enumerate(_interpolate_integral(nodes, values)[1:], k + 1):
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
            nodes = _reciprocity_nodes(d + 1)
            values = [
                (-1) ** d * _run_walk(levels, -m, limit, interior=True) if m < 0
                else _run_walk(levels, m, limit)
                for m in nodes
            ]
            yield s, EhrhartPolynomial(tuple(_interpolate_integral(nodes, values)))


def ehrhart_from_projections(poly: Polytope) -> EhrhartPolynomial:
    """Closed form for fully integral P: coefficient j is the volume of the
    projection to the first j coordinates, normalized to Z^j; the slice
    formula at k = dim P."""
    return ehrhart_from_slices(poly, poly.dim)


EHRHART_METHODS = ("auto", "interpolate", "k-integral", "fully-integral")


def select_ehrhart_method(
    poly: Polytope, method: str = "auto", k: int | None = None
) -> tuple[str, int | None]:
    """The concrete Ehrhart method and level that ``method`` and ``k`` ask for.

    "auto" takes the projection closed form ("fully-integral") when P is fully
    integral and otherwise the slice formula ("k-integral") at P's
    integrality level; "k-integral" without k uses that level too.  The level
    is None for the two methods that take none.
    """
    return _select(poly, method, k)[:2]


def _select(poly: Polytope, method: str, k: int | None):
    """``select_ehrhart_method`` with the integrality certificate that picked
    the level, or None when none was read."""
    if method not in EHRHART_METHODS:
        raise ValueError(f"unknown Ehrhart method {method!r}")
    if method in ("interpolate", "fully-integral"):
        return method, None, None
    if method == "k-integral" and k is not None:
        return method, k, None
    require(poly, integral=0)
    cert = integrality_level(poly)
    if method == "auto" and cert.max_level == poly.dim:
        return "fully-integral", None, cert
    return "k-integral", cert.max_level, cert


def ehrhart_polynomial(
    poly: Polytope, method: str = "auto", k: int | None = None
) -> tuple[str, int | None, EhrhartPolynomial]:
    """(method, level, polynomial): the Ehrhart polynomial by the method and
    level that ``select_ehrhart_method`` picks for ``method`` and ``k``, from
    one integrality scan at most."""
    method, k, cert = _select(poly, method, k)
    if cert is not None:  # the scan that picked the level has certified it
        return method, k, _slice_formula(poly, cert.max_level)
    if method == "k-integral":
        return method, k, ehrhart_from_slices(poly, k)
    build = ehrhart_interpolated if method == "interpolate" else ehrhart_from_projections
    return method, k, build(poly)


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
