"""Exact V-representation polytopes with H-representation, faces, projection,
slicing, and lattice-point enumeration and counting.

Geometry is exact over the rationals throughout; the intended scale is small
("desk scale": dimension <= ~6, <= ~20 vertices).

The one hull, of a point set, runs in integers on the points times a common
denominator den: a fraction-free elimination of their differences
(``linalg.integer_affine_hull``, also ``face_flat``) gives lin(P), the
equalities and the chart, and Motzkin's double description method (see
``_double_description``) the facets together with their sets of tight points,
which give the vertices, the inequalities and the vertex-facet incidences.
The H-representation and ``lin_basis`` are built from them on first read.
The face lattice is read from the incidences, as integer bitmasks, top down,
each face's facets found among those of its parent (``_faces_by_dim``).  Slices
are cut one coordinate at a time (``axis_cut``) along the edges of that lattice
and inherit P's facet masks, not its normals, so a cut takes no hull (``_cut``);
a piece's H-representation is its own hull, built on first read.  Lattice
points are tallied by prefix by one walker (``_LatticeWalk``); listing them
is the tally by the whole point.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .linalg import (
    IntegerFlat,
    common_denominator,
    dot,
    int_kernel,
    integer_affine_hull,
    integer_rref,
    primitive_row,
)

DEFAULT_CELL_BUDGET = 10**7
_BUDGET_ENV = "LATTICEFACE_CELL_BUDGET"

Point = tuple[Fraction, ...]


class BudgetExceeded(RuntimeError):
    """Raised when lattice-point enumeration or counting exceeds the cell budget."""


def cell_budget(override: int | None = None) -> int:
    if override is not None:
        if override < 0:
            raise ValueError(f"cell budget must be a nonnegative integer, got {override!r}")
        return override
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_CELL_BUDGET
    if not (raw.isascii() and raw.isdigit()):  # int() also takes "1_000", " 7 ", "+5"
        raise ValueError(f"{_BUDGET_ENV} must be a nonnegative integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class HRep:
    """Irredundant H-representation: equalities a.x = b and inequalities c.x <= e.

    Rows are primitive integer vectors stored as (coefficients, rhs).
    """

    equalities: tuple[tuple[tuple[int, ...], int], ...]
    inequalities: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class Face:
    """A face of a polytope, identified by the indices of its vertices."""

    vertex_indices: tuple[int, ...]
    dim: int


def _as_point(coords, dim: int, what: str = "point") -> Point:
    p = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in coords)
    if len(p) != dim:
        raise ValueError(f"{what} length does not match ambient dimension")
    return p


class Polytope:
    """Convex hull of finitely many rational points, in exact arithmetic.

    The vertex list keeps the input order (minus duplicates and non-extreme
    points).  The empty polytope is a legitimate value with dimension -1.
    """

    def __init__(self, ambient_dim: int, points):
        pts = [_as_point(p, ambient_dim) for p in points]
        den, ints = common_denominator(pts)
        unique: dict[tuple[int, ...], Point] = {}  # first occurrences, in order
        for p, row in zip(pts, ints):
            unique.setdefault(tuple(row), p)
        pts, ints = list(unique.values()), list(unique)
        self._span(ambient_dim, pts, den, ints)
        if self.dim < 1:
            return

        # One double-description pass over all points: the hull of the vertices
        # has the same facets in the same chart, so it also yields the
        # H-representation.
        self._facets = facets = self._hull(den, ints)
        # A point is a vertex iff the facets through it meet in that point alone.
        keep = []
        for i in range(len(pts)):
            meet = -1
            for _, _, mask in facets:
                if mask >> i & 1:
                    meet &= mask
            if meet == 1 << i:
                keep.append(i)
        self.vertices = tuple(pts[i] for i in keep)
        # Bit v of a facet mask is set when vertex v lies on the facet.
        self._facet_masks = tuple(
            sum(1 << v for v, i in enumerate(keep) if mask >> i & 1) for _, _, mask in facets
        )

    def _span(self, ambient_dim: int, pts: list[Point], den: int, ints: list[list[int]]) -> None:
        """Set the affine hull of the distinct points ``pts`` = ``ints`` / ``den``,
        which include the vertices, and for now take them all as vertices, with no facets."""
        self.ambient_dim, self.vertices = ambient_dim, tuple(pts)
        self._projections: dict[int, Polytope] = {}
        self._projected_from = None  # weak reference to the polytope this projects
        self._facet_masks = ()  # none below dimension 1
        self._flat = integer_affine_hull(den, ints) if pts else None
        self.dim = len(self._flat.pivots) if pts else -1
        self.base_point: Point | None = pts[0] if pts else None

    def _hull(self, den: int, ints: list[list[int]]):
        """The facets (``_double_description``) of the points ``ints`` / ``den``,
        which span aff(P), in its chart: each rref row has its pivot alone in its
        column, so den times a point's chart coordinates are its integer offsets there."""
        base, pivots = self._flat.base, self._flat.pivots
        return _double_description([[p[c] - base[c] for c in pivots] for p in ints], den, self.dim)

    @cached_property
    def _facets(self):
        """A cut piece's facets, of which it inherits only the vertex masks (``_cut``):
        the hull of its own vertices, on first read.  The constructor sets its own."""
        return self._hull(*self._integer_vertices) if self.dim >= 1 else []

    @cached_property
    def hrep(self) -> HRep:
        """The H-representation, built on first read from the integer affine
        hull and the double-description facets (``_facets``)."""
        if self.is_empty:
            return HRep((), ((tuple(0 for _ in range(self.ambient_dim)), -1),))
        den, base, rows, pivots, _ = self._flat

        def primitive(a, rhs):  # den * a.x (= or <=) rhs as a primitive integer row
            row = primitive_row([den * x for x in a] + [rhs])
            return tuple(row[:-1]), row[-1]

        eq_rows = [primitive(a, dot(a, base)) for a in int_kernel(rows, ncols=self.ambient_dim)]
        ineq_rows = []
        for n, b, _ in self._facets:
            a = [0] * self.ambient_dim
            for c, x in zip(pivots, n):
                a[c] = x
            # n.chart(x) <= b is a.x <= b + a.p0, that is den*a.x <= den*b + a.(den*p0).
            ineq_rows.append(primitive(a, den * b + dot(a, base)))
        return HRep(tuple(sorted(eq_rows)), tuple(sorted(ineq_rows)))

    @cached_property
    def lin_basis(self) -> tuple[Point, ...]:
        """The rref of lin(P), built on first read from the integer affine hull."""
        if self.is_empty:
            return ()
        _, _, rows, _, scale = self._flat
        return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)

    # -- structure ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def faces(self, ell: int) -> list[Face]:
        """All faces of dimension ``ell``, sorted by vertex index tuple, in a new list."""
        if self.is_empty:
            raise ValueError("empty polytope has no faces")
        if not 0 <= ell <= self.dim:
            raise ValueError(f"face dimension must lie in [0, {self.dim}], got {ell}")
        return list(self._faces_by_dim[ell])

    @cached_property
    def _faces_by_dim(self) -> dict[int, list[Face]]:
        # Top down from P itself (Kaibel and Pfetsch 2002), so a face's
        # dimension is the layer it is found in.  Each layer maps its faces, as
        # vertex masks, to the facets of the face they were found in (``_facets_of``).
        layers = [{(1 << len(self.vertices)) - 1: None}]
        for j in range(self.dim):  # any face a facet was found in will do
            layers.append({g: facets for face, siblings in layers[-1].items()
                           for facets in [self._facets_of(face, self.dim - j, siblings)] for g in facets})
        indices = range(len(self.vertices))
        return {
            self.dim - j: [
                Face(idx, self.dim - j)
                for idx in sorted(tuple(v for v in indices if face >> v & 1) for face in layer)
            ]
            for j, layer in enumerate(layers)
        }

    def _facets_of(self, face: int, dim: int, siblings: list[int] | None) -> list[int]:
        """The facets of the ``dim``-face ``face``, as vertex masks, given the
        facets ``siblings`` of a face that it is a facet of (None for P itself).
        As a ridge lies in exactly two facets, they are the inclusion-maximal
        nonempty meets face & g over the other siblings g."""
        if face.bit_count() == dim + 1:
            return [face & ~(1 << v) for v in range(face.bit_length()) if face >> v & 1]
        if siblings is None:
            return list(self._facet_masks)
        return _maximal({face & g for g in siblings if g != face}, dim)

    def face_vertices(self, face: Face) -> tuple[Point, ...]:
        return tuple(self.vertices[i] for i in face.vertex_indices)

    @cached_property
    def _integer_vertices(self) -> tuple[int, list[list[int]]]:
        return common_denominator(self.vertices)

    def face_flat(self, face: Face) -> IntegerFlat:
        """The affine hull of a face, held in integers (``integer_affine_hull``)."""
        den, ints = self._integer_vertices
        return integer_affine_hull(den, [ints[i] for i in face.vertex_indices])

    # -- point queries ------------------------------------------------------

    def contains(self, point) -> bool:
        return self.classify_point(point) != "outside"

    def classify_point(self, point) -> str:
        """Classify relative to the affine hull: outside, boundary, or interior."""
        den, (p,) = common_denominator([_as_point(point, self.ambient_dim)])
        if any(dot(c, p) != den * b for c, b in self.hrep.equalities):
            return "outside"
        excess = [dot(c, p) - den * b for c, b in self.hrep.inequalities]
        if any(v > 0 for v in excess):
            return "outside"
        return "boundary" if 0 in excess else "interior"

    # -- geometric constructions ---------------------------------------------

    def translate(self, shift) -> "Polytope":
        s = _as_point(shift, self.ambient_dim, "shift")
        return Polytope(self.ambient_dim, [tuple(x + t for x, t in zip(v, s)) for v in self.vertices])

    def dilate(self, m: int) -> "Polytope":
        return Polytope(self.ambient_dim, [tuple(m * x for x in v) for v in self.vertices])

    def project(self, k: int) -> "Polytope":
        """Image under forgetting all but the first k coordinates."""
        if not 0 <= k <= self.ambient_dim:
            raise ValueError(f"projection target must lie in [0, {self.ambient_dim}], got {k}")
        if k == self.ambient_dim:
            return self
        if (source := self._projected_from and self._projected_from()) is not None:
            return source.project(k)  # projecting a projection further is projecting P
        if k not in self._projections:
            self._projections[k] = proj = Polytope(k, [v[:k] for v in self.vertices])
            proj._projected_from = weakref.ref(self)  # weak: no reference cycle with P
        return self._projections[k]

    def intersect_hyperplane(self, normal, rhs) -> "Polytope":
        """Exact intersection with the hyperplane normal . x = rhs."""
        nrm = _as_point(normal, self.ambient_dim, "normal")
        _, (row,) = common_denominator([(*nrm, Fraction(rhs))])
        den, ints = self._integer_vertices
        return self._cut([dot(row[:-1], v) - den * row[-1] for v in ints])

    def axis_cut(self, i: int, value) -> "Polytope":
        """The slice {x in P : x_i = value}: the one slicing step, which
        ``slice_at`` and ``volume.iter_slices`` repeat coordinate by coordinate."""
        if not 0 <= i < self.ambient_dim:
            raise ValueError(f"cut coordinate must lie in [0, {self.ambient_dim}), got {i}")
        r = Fraction(value)
        den, ints = self._integer_vertices
        return self._cut([r.denominator * v[i] - den * r.numerator for v in ints])

    def _cut(self, vals: list[int]) -> "Polytope":
        """The piece Q of P where ``vals``, a positive integer multiple of an
        affine function at the vertices A / den (``_integer_vertices``), vanishes.
        Its vertices are those of P there, then the points (vb A - va B) / ((vb - va) den)
        where it changes sign along an edge from A to B, each supported on that
        vertex or edge of P.  Every facet of Q is f & Q for a facet f of P, whose
        vertices are those supported in f: the inclusion-maximal proper ones.
        Q keeps only these masks: no hull, until its ``hrep`` is read (``_facets``)."""
        if self.is_empty or not any(vals):
            return self  # empty, or inside the hyperplane
        den, ints = self._integer_vertices
        pts = [v for v, val in zip(self.vertices, vals) if val == 0]
        support = [1 << i for i, val in enumerate(vals) if val == 0]
        for face in self.faces(1) if self.dim >= 1 else ():
            i, j = face.vertex_indices[0], face.vertex_indices[-1]
            va, vb = vals[i], vals[j]
            if (va < 0 < vb) or (vb < 0 < va):
                q = (vb - va) * den
                pts.append(tuple(Fraction(vb * x - va * y, q) for x, y in zip(ints[i], ints[j])))
                support.append(1 << i | 1 << j)
        piece = Polytope.__new__(Polytope)
        piece._integer_vertices = qden, qints = common_denominator(pts)
        piece._span(self.ambient_dim, pts, qden, qints)
        if piece.dim < 1:
            return piece
        meets = dict.fromkeys(  # in P's facet order
            sum(1 << v for v, s in enumerate(support) if s & f == s) for f in self._facet_masks
        )
        meets.pop((1 << len(pts)) - 1, None)  # a facet of P that holds all of Q
        piece._facet_masks = tuple(_maximal(meets, piece.dim))
        return piece

    def slice_at(self, y) -> "Polytope":
        """The slice {x in P : first k coordinates equal y}, in ambient coordinates.

        One ``axis_cut`` per coordinate of y, stopping at the first empty cut.
        """
        fixed = tuple(Fraction(x) for x in y)
        if len(fixed) > self.ambient_dim:
            raise ValueError("slice point has more coordinates than the ambient space")
        result: Polytope = self
        for i, yi in enumerate(fixed):
            result = result.axis_cut(i, yi)
            if result.is_empty:
                break
        return result

    # -- lattice points -------------------------------------------------------

    @cached_property
    def _walk_levels(self) -> tuple["_Level", ...]:
        """The lattice walker's rows, split once from the H-representations of
        project(P, j) for j = 1..D."""
        return _split_levels([_hrep_rows(self.project(j).hrep) for j in range(1, self.ambient_dim + 1)])

    def lattice_points(self, scale: int = 1, budget: int | None = None) -> list[tuple[int, ...]]:
        """All integer points of ``scale * P``, in lexicographic order.

        These are the keys of ``lattice_point_counts`` at k = D, whose walker
        fixes the coordinates one at a time, bounding each through the
        H-representation of the corresponding projection, so the work is
        proportional to the points actually visited rather than to a bounding
        box.  Raises BudgetExceeded past the cell budget.
        """
        return list(self.lattice_point_counts(scale, self.ambient_dim, budget))

    def lattice_point_counts(
        self, scale: int = 1, k: int = 0, budget: int | None = None, interior: bool = False
    ) -> dict[tuple[int, ...], int]:
        """Number of integer points of ``scale * P`` over each integer prefix of
        length ``k``: {y: #{x in scale * P : x[:k] == y}}, nonzero counts only.
        With ``interior`` only the points of the relative interior of
        ``scale * P`` are counted.

        k = 0 gives {(): #(scale * P)}, or {} when that is 0, and k = D each
        point of ``scale * P`` with count 1, in lexicographic order.
        """
        if not 0 <= k <= self.ambient_dim:
            raise ValueError(f"prefix length must lie in [0, {self.ambient_dim}], got {k}")
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        limit = cell_budget(budget)
        if self.is_empty:
            return {}
        if self.ambient_dim == 0:  # the point of R^0 is its own relative interior
            return {(): 1}
        tally: dict[tuple[int, ...], int] = {}
        _run_walk(self._walk_levels, scale, limit, interior, k, tally)
        return tally

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polytope)
            and self.ambient_dim == other.ambient_dim
            and frozenset(self.vertices) == frozenset(other.vertices)
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, frozenset(self.vertices)))

    def __repr__(self) -> str:
        if self.is_empty:
            return f"Polytope(empty, ambient_dim={self.ambient_dim})"
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, ambient_dim={self.ambient_dim})"


def _double_description(chart: list[list[int]], den: int, d: int):
    """Facets of the full-dimensional hull of the chart points C / den, by
    Motzkin's double description method in exact integer arithmetic.

    The valid inequalities n.x <= b of the hull form the pointed cone
    {y = (n, b) : y.(C, -den) <= 0 for every chart row C}, whose extreme
    rays are the facets.  The start cone comes from the first d + 1 affinely
    independent points and is found in integers only (``integer_rref``).
    Every ray carries its incidence set as a bitmask over the points inserted
    so far (bit i set when point i is on the facet).  Returns (primitive
    normal, rhs, mask) triples; once every point is inserted, a mask is the
    facet's full set of tight points.
    """
    rows = [c + [-den] for c in chart]
    n = len(rows)
    # One fraction-free Gauss-Jordan pass over the integer matrix [W^T | I]
    # picks the first d + 1 affinely independent points as its pivots and
    # leaves a positive multiple of (W0^T)^-1 on the right; its rows, negated,
    # are the extreme rays of the start cone {y : W0 y <= 0}, one per start
    # point, tight on every other start point.  A simplex is all start points,
    # so it takes no insertion step.
    reduced, start, _ = integer_rref(
        [[w[k] for w in rows] + [int(k == j) for j in range(d + 1)] for k in range(d + 1)]
    )
    inserted = sum(1 << i for i in start)
    rays = [
        (primitive_row([-x for x in reduced[r][n:]]), inserted & ~(1 << i))
        for r, i in enumerate(start)
    ]
    for i in range(n):
        bit = 1 << i
        if inserted & bit:
            continue
        inserted |= bit
        w = rows[i]
        plus, minus, kept = [], [], []
        for ray, mask in rays:
            v = dot(w, ray)
            if v > 0:
                plus.append((ray, mask, v))
            elif v < 0:
                minus.append((ray, mask, v))
                kept.append((ray, mask))
            else:
                kept.append((ray, mask | bit))
        masks = [mask for _, mask in rays]
        for p, pmask, pv in plus:
            for m, mmask, mv in minus:
                # Combinatorial adjacency test: the two rays are adjacent iff
                # at least d - 1 inserted points are tight on both and no
                # third ray is tight on all of them.
                common = pmask & mmask
                if common.bit_count() < d - 1 or not _only_two_contain(common, masks):
                    continue
                ray = primitive_row([pv * x - mv * y for x, y in zip(m, p)])
                kept.append((ray, common | bit))
        rays = kept
    return [(tuple(ray[:-1]), ray[-1], mask) for ray, mask in rays]


def _maximal(masks, dim: int) -> list[int]:
    """The facets of a ``dim``-polytope among distinct face masks that include
    them all: the inclusion-maximal ones, which have at least dim vertices."""
    maximal: list[int] = []  # a proper superset has more bits, so it is met first
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if m.bit_count() < dim:
            break
        if not any(m & k == m for k in maximal):
            maximal.append(m)
    return maximal


def _only_two_contain(common: int, masks: list[int]) -> bool:
    """Whether at most two of ``masks`` contain every bit of ``common``."""
    hits = 0
    for mask in masks:
        if common & mask == common:
            hits += 1
            if hits > 2:
                return False
    return True


class _Level(NamedTuple):
    """The rows that bound coordinate L in the lattice walk: those of the
    projection to the first L + 1 coordinates with a nonzero coefficient a at
    coordinate L, an equality a.x = b counting as a.x <= b and -a.x <= -b.
    A row with a = 0 is valid on the projection to the first L coordinates,
    in which every prefix of the walk already lies, so it never cuts and is
    dropped; an inequality among them is a facet, not an implicit equality,
    so a prefix in the relative interior satisfies it strictly.  Residuals
    (scale * rhs - row . prefix) are laid out as the uppers, the lowers, then
    the rows of every later level.
    """

    uppers: tuple[int, ...]  # a > 0: coordinate L <= floor(residual / a)
    lowers: tuple[int, ...]  # -a for a < 0: coordinate L >= -floor(residual / -a)
    rhs: tuple[int, ...]  # right-hand sides of these rows, in residual order
    strict: tuple[int, ...]  # 1 for a row from an inequality, 0 from an equality
    column: tuple[int, ...]  # coefficients of coordinate L in the later levels' rows


def _hrep_rows(hrep: HRep) -> list[tuple[tuple[int, ...], int, int]]:
    """The rows (c, b, strict) of c.x <= b of an H-representation: each
    inequality, strict, and each equality as two rows that are not."""
    rows = [(c, b, 1) for c, b in hrep.inequalities]
    rows += [row for c, b in hrep.equalities for row in ((c, b, 0), (tuple(-x for x in c), -b, 0))]
    return rows


def _split_levels(systems) -> tuple[_Level, ...]:
    """The walker's levels from the integer rows (c, b, strict) (``_hrep_rows``)
    of the projections to the first 1, 2, ..., D coordinates."""
    split = []
    for level, rows in enumerate(systems):
        uppers = [row for row in rows if row[0][level] > 0]
        lowers = [row for row in rows if row[0][level] < 0]
        if not (uppers and lowers):
            raise RuntimeError(f"lattice walk: the fibre of coordinate {level} is unbounded")
        split.append((uppers, lowers))
    return tuple(
        _Level(
            uppers=tuple(c[level] for c, _, _ in uppers),
            lowers=tuple(-c[level] for c, _, _ in lowers),
            rhs=tuple(b for _, b, _ in uppers + lowers),
            strict=tuple(s for _, _, s in uppers + lowers),
            column=tuple(c[level] for pair in split[level + 1:] for rows in pair for c, _, _ in rows),
        )
        for level, (uppers, lowers) in enumerate(split)
    )


def _fibre_levels(systems, y, tails, dim: int) -> tuple[_Level, ...]:
    """The walker's levels, over the coordinates k..D-1, of the slice
    Q = P cap {x[:k] = y} of dimension ``dim`` >= 1, read from P's own rows.

    ``systems`` holds, for j = k + 1..D, the rows (head, tail, b) of the
    projection of P to the first j coordinates (``_hrep_rows``), each row c
    split as head = c[:k] and tail = c[k:], kept only when the last coefficient
    of its tail is nonzero (``_split_levels`` drops the others); ``tails`` are
    the integer vertices of Q from coordinate k on.  Projecting Q to the first
    j >= k coordinates gives proj(P, j) cap {x[:k] = y}, so the rows with y
    substituted describe it, and of them:
    - rows with equal tails are merged, keeping the smallest right-hand side;
    - a row tight at every vertex of Q is an implicit equality, so it is not
      strict, and an interior walk counts relint Q even on a boundary slice;
    - a row tight at fewer than max(1, dim - (D - j)) vertices of Q is dropped,
      since a facet of proj(Q, j), whose dimension is at least dim - (D - j),
      holds that many of its vertices, each the image of a vertex of Q.
    """
    split = []
    for i, rows in enumerate(systems):
        least = max(1, dim - (len(systems) - 1 - i))
        merged: dict[tuple[int, ...], int] = {}
        for head, tail, b in rows:
            r = b - dot(head, y)
            merged[tail] = min(r, merged.get(tail, r))
        kept = []
        for tail, r in merged.items():
            tight = sum(dot(tail, v) == r for v in tails)
            if tight == len(tails):
                kept.append((tail, r, 0))
            elif tight >= least:
                kept.append((tail, r, 1))
        split.append(kept)
    return _split_levels(split)


def _run_walk(levels, scale: int, limit: int, interior: bool = False, k: int = -1, tally=None) -> int:
    """Walk the integer points of ``scale`` times the polytope that ``levels``
    describe, or of its relative interior, into ``tally`` by prefix of length k
    (``_LatticeWalk``); returns their number.  At integer points a strict row
    a.x < scale * b is a.x <= scale * b - 1, and relint projects onto relint."""
    cut = 1 if interior else 0
    rows = [[scale * b - cut * s] for level in levels for b, s in zip(level.rhs, level.strict)]
    return _LatticeWalk(levels, limit, k, tally).run(0, rows, [()])[0]


_RUN = 4096  # most sibling nodes a run holds, so a run's lists stay small


def _mins(rows: list[list[int]]) -> list[int]:
    return rows[0] if len(rows) == 1 else list(map(min, *rows))


class _LatticeWalk:
    """One budgeted depth-first walk over the integer points of scale * P.

    It visits runs of sibling nodes: nodes of one level whose prefixes differ
    only in the last coordinate.  A run holds, for each row of its level and
    of every later level, the residuals scale * rhs - row . prefix over the
    run (less 1 on the ``strict`` rows when the walk is over the relative
    interior), so no node takes a dot product: the child run of a node whose
    coordinate L takes the values v gets the later residuals minus v times
    their coordinate-L column.  Cells visited are the fibre widths summed over
    every node; the budget is checked after every run, which raises exactly
    when the sum passes it.  ``tally`` receives the number of points below
    each node of level k, a prefix of length k, and at k = D each point as its
    own prefix.  Nothing refers back to the walk, so it leaves no reference cycle.
    """

    def __init__(self, levels, limit: int, k: int = -1, tally=None):
        self.levels = levels
        self.limit = limit
        self.visited = 0
        self.k = k
        self.tally = tally

    def run(self, level: int, rows: list[list[int]], heads) -> list[int]:
        """Visit a run of sibling nodes of ``level`` with prefixes ``heads``
        (None past level k, where none is tallied); returns the points below each."""
        lv = self.levels[level]
        nu = len(lv.uppers)
        his = _mins([[r // a for r in row] for row, a in zip(rows, lv.uppers)])
        neg_los = _mins([[r // a for r in row] for row, a in zip(rows[nu:], lv.lowers)])
        counts = [h + g + 1 if h + g >= 0 else 0 for h, g in zip(his, neg_los)]
        self.visited += sum(counts)
        if self.visited > self.limit:
            raise BudgetExceeded(f"lattice enumeration exceeded the cell budget of {self.limit}")
        if level + 1 == len(self.levels):
            if self.k == len(self.levels):
                for head, g, h in zip(heads, neg_los, his):
                    self.tally.update(dict.fromkeys([head + (v,) for v in range(-g, h + 1)], 1))
        else:
            later = rows[len(lv.rhs):]
            column = lv.column
            for j, (g, h) in enumerate(zip(neg_los, his)):
                below = 0
                for start in range(-g, h + 1, _RUN):
                    values = range(start, min(start + _RUN, h + 1))
                    child_rows = [[row[j] - c * v for v in values] for row, c in zip(later, column)]
                    child_heads = None
                    if level < self.k:
                        child_heads = [heads[j] + (v,) for v in values]
                    below += sum(self.run(level + 1, child_rows, child_heads))
                counts[j] = below
        if level == self.k:
            self.tally.update((head, n) for head, n in zip(heads, counts) if n)
        return counts
