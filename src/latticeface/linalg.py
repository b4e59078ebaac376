"""Exact linear algebra over the rationals and the integers.

Matrices are plain lists of rows; scalars are ``int`` or ``fractions.Fraction``.
Everything here is exact: no floating point is used anywhere in the package.
There is one Gaussian elimination, the fraction-free pass ``_bareiss``;
``integer_rref``, ``integer_det``, ``det``, ``rank``, ``rref``, ``solve`` and
``inverse`` are views of it, the rational ones after ``common_denominator``,
the one clearing rule.  ``hnf`` is a separate algorithm, for lattices;
``integer_solution`` and ``Sublattice.contains`` share ``hermite_coordinates``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

Matrix = Sequence[Sequence[Fraction | int]]
IntMatrix = Sequence[Sequence[int]]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def matmul(a: Matrix, b: Matrix) -> list[list]:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_mat(v: Sequence, a: Matrix) -> list:
    return [sum(x * y for x, y in zip(v, col)) for col in zip(*a)]


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def _bareiss(a: list[list[int]], above: bool = True) -> tuple[list[int], int, int]:
    """The one Gaussian elimination here: a fraction-free Gauss-Jordan pass,
    in place on the integer rows ``a``.

    Every step is Bareiss's integer-preserving update ("Sylvester's identity
    and multistep integer-preserving Gaussian elimination", 1968), applied to
    the rows above the pivot too: every entry stays, up to sign, a minor of
    the input, the division by the previous pivot is exact, and at the end
    every pivot entry equals the last pivot, so ``a == last * rref``.
    Returns (pivots, last, sign): the pivot columns, the last pivot (1 when
    there is none) and the sign of the row swaps.  For a square matrix of full
    rank, sign * last is its determinant.  The return value does not depend on
    the rows above each pivot, which ``above=False`` leaves unreduced.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    prev = sign = 1
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i in range(0 if above else r + 1, rows):
            if i != r:
                row = a[i]
                f = row[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return pivots, prev, sign


def integer_rref(m: IntMatrix) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (rows, pivots, scale) with ``rows == scale * rref(m)`` exactly and
    ``scale > 0``; ``pivots`` are the pivot columns of ``rref``.  ``det``,
    ``rank``, ``rref``, ``solve`` and ``inverse`` run the same pass after
    ``common_denominator``.  On [M | I] for a nonsingular M it leaves
    scale * M^-1 on the right.
    """
    a = [list(row) for row in m]
    pivots, last, _ = _bareiss(a)
    if last < 0:
        a = [[-x for x in row] for row in a]
    return a, pivots, abs(last)


class IntegerFlat(NamedTuple):
    """The affine space (base + span(rows)) / den, held in integers.

    ``base`` is den times a point of it, and ``rows`` are scale * the rref of
    its direction space (``integer_rref``, scale > 0, nonzero rows only) with
    pivot columns ``pivots``.
    """

    den: int
    base: list[int]
    rows: list[list[int]]
    pivots: list[int]
    scale: int


def integer_affine_hull(den: int, points: IntMatrix) -> IntegerFlat:
    """The affine hull of the rational points p / den for p in ``points`` (a
    nonempty list of integer rows), from one fraction-free elimination of the
    integer differences p - points[0]."""
    base = points[0]
    rows, pivots, scale = integer_rref([[x - b for x, b in zip(p, base)] for p in points[1:]])
    return IntegerFlat(den, base, rows[: len(pivots)], pivots, scale)


def integer_det(m: IntMatrix) -> int:
    """Exact determinant of a square integer matrix: the signed last pivot of
    its elimination, 0 when it is singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    pivots, last, sign = _bareiss(list(m), above=False)
    return sign * last if len(pivots) == n else 0


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square rational matrix: ``integer_det`` of
    den * m over den^n, for the common denominator den of its n rows."""
    den, a = common_denominator(m)
    return Fraction(integer_det(a), den ** len(a))


def rank(m: Matrix) -> int:
    return len(_bareiss(common_denominator(m)[1], above=False)[0])


def rref(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form (zero rows last) and its pivot columns."""
    a = common_denominator(m)[1]
    pivots, last, _ = _bareiss(a)
    return [[Fraction(x, last) for x in row] for row in a], pivots


def solve(a: Matrix, b: Sequence) -> list[Fraction] | None:
    """One exact solution of ``a @ x = b`` (free variables set to 0), or None."""
    if len(b) != len(a):
        raise ValueError("right-hand side length does not match the number of rows")
    cols = len(a[0]) if a else 0
    aug = common_denominator([[*row, y] for row, y in zip(a, b)])[1]
    pivots, last, _ = _bareiss(aug)
    if pivots and pivots[-1] == cols:
        return None  # pivot in the constant column: inconsistent system
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = Fraction(aug[r][cols], last)
    return x


def inverse(m: Matrix) -> list[list[Fraction]]:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse requires a square matrix")
    aug = common_denominator([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)])[1]
    pivots, last, _ = _bareiss(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, last) for x in row[n:]] for row in aug]


def hnf(m: IntMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with transformation: returns (H, U), H = U @ m.

    H is canonical: nonzero rows first with strictly increasing pivot columns,
    pivots positive, entries above each pivot reduced into [0, pivot).
    U is unimodular.
    """
    h = [[int(x) for x in row] for row in m]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = identity(nrows)

    def combine(dst: int, src: int, q: int) -> None:
        h[dst] = [x - q * y for x, y in zip(h[dst], h[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    r = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if h[i][col] != 0]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(h[i][col]))
            for i in nz:
                if i != piv:
                    combine(i, piv, h[i][col] // h[piv][col])
        nz = [i for i in range(r, nrows) if h[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != r:
            h[r], h[i0] = h[i0], h[r]
            u[r], u[i0] = u[i0], u[r]
        if h[r][col] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][col] // h[r][col]
            if q:
                combine(i, r, q)
        r += 1
        if r == nrows:
            break
    return h, u


def hnf_basis(m: IntMatrix) -> list[list[int]]:
    """Nonzero rows of the Hermite normal form: a canonical lattice basis."""
    h, _ = hnf(m)
    return [row for row in h if any(row)]


def int_kernel(a: IntMatrix, ncols: int | None = None) -> list[list[int]]:
    """Canonical basis of the saturated integer kernel {x : a @ x = 0}.

    ``ncols`` must be given when ``a`` has no rows.
    """
    if not a:
        if ncols is None:
            raise ValueError("ncols required for an empty constraint matrix")
        return identity(ncols)
    h, u = hnf(transpose(a))
    kernel = [u[i] for i, row in enumerate(h) if not any(row)]
    return hnf_basis(kernel) if kernel else []


def common_denominator(rows: Matrix) -> tuple[int, list[list[int]]]:
    """The lcm den of every denominator in ``rows`` and the integer rows den * rows."""
    den = math.lcm(*(x.denominator for row in rows for x in row))  # int has denominator 1
    if den == 1:
        return 1, [[x.numerator for x in row] for row in rows]
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def primitive_row(row: Sequence[Fraction | int]) -> list[int]:
    """Integer row divided by the gcd of its entries; orientation preserved."""
    ints = common_denominator([row])[1][0]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def hermite_coordinates(pivoted: Sequence[tuple], point: Sequence[int]) -> list[int] | None:
    """The integers z with point = sum_i z_i * row_i over the (pivot column,
    row) pairs of a row Hermite form, in order, or None when there are none:
    forward substitution, as each pivot column is zero in every later row."""
    rest, z = list(point), []
    for col, row in pivoted:
        q, r = divmod(rest[col], row[col])
        if r:
            return None
        rest = [x - q * y for x, y in zip(rest, row)]
        z.append(q)
    return None if any(rest) else z


def integer_solution(a: IntMatrix, b: Sequence[Fraction | int]) -> list[int] | None:
    """Some integer solution x of ``a @ x = b``, or None when none exists."""
    if any(Fraction(x).denominator != 1 for x in b):
        return None
    if not a:
        return []
    target = [int(x) for x in b]
    h, u = hnf(transpose(a))
    # x = U^T z turns a @ x = b into sum_i z_i H_i = b over the nonzero rows of H.
    pivoted = [(next(j for j, x in enumerate(row) if x), row) for row in h if any(row)]
    z = hermite_coordinates(pivoted, target)
    if z is None:
        return None
    x = vec_mat(z, u)
    if mat_vec(a, x) != target:
        raise RuntimeError("integer solution does not satisfy the system")
    return x
