"""Exact reference arithmetic for the benchmark's generator and oracles.

Everything here is written from first principles (Leibniz expansion,
binomial coefficients, Lagrange-free polynomial evaluation) so that an oracle
built on it never reuses the formulas of the library it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial


def parse_rational(value) -> Fraction:
    """A coordinate or result as printed by the program: an int or "p/q"."""
    if isinstance(value, bool) or value is None:
        raise ValueError(f"not a rational: {value!r}")
    return Fraction(value)


def leibniz_det(rows) -> Fraction:
    """Determinant as the signed sum over permutations (exact, any entries)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if term == 0:
                break
        total += term
    return total


def simplex_volume(vertices) -> Fraction:
    """Euclidean volume of a full-dimensional simplex, |det(v_i - v_0)| / d!.

    This is the library's "normalized volume" for a full-dimensional polytope
    (a fundamental cell of Z^d has volume 1).
    """
    base = vertices[0]
    diffs = [[Fraction(x) - Fraction(b) for x, b in zip(v, base)] for v in vertices[1:]]
    d = len(diffs)
    return abs(leibniz_det(diffs)) / factorial(d)


def signed_simplex_det(vertices) -> Fraction:
    """det of the rows (1, v) in vertex order: d! times the signed volume."""
    return leibniz_det([[1, *[Fraction(x) for x in v]] for v in vertices])


def is_fully_general_simplex(vertices) -> bool:
    """Every face of dimension j >= 1 surjects onto the leading j coordinates.

    For a simplex every vertex subset spans a face, so this checks the leading
    j x j minor of the edge vectors of every (j+1)-subset.
    """
    return generality_level_of_simplex(vertices) == len(vertices) - 1


def generality_level_of_simplex(vertices) -> int:
    """Largest k such that every face of dimension <= k is in general position."""
    verts = [[Fraction(x) for x in v] for v in vertices]
    d = len(verts) - 1
    for j in range(1, d + 1):
        for subset in itertools.combinations(verts, j + 1):
            base = subset[0]
            minor = [[x - b for x, b in zip(v[:j], base[:j])] for v in subset[1:]]
            if leibniz_det(minor) == 0:
                return j - 1
    return d


def box_ehrhart(sides) -> list[Fraction]:
    """Coefficients (constant first) of prod_i (a_i m + 1)."""
    coeffs = [Fraction(1)]
    for a in sides:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c
            nxt[j + 1] += c * a
        coeffs = nxt
    return coeffs


def simplex_count(d: int, s: int, m: int) -> int:
    """Lattice points of m times the standard simplex of side s: C(sm + d, d)."""
    return comb(s * m + d, d)


def cross_volume(d: int, s: int) -> Fraction:
    """Volume of s times the cross-polytope conv(+-e_i): (2s)^d / d!."""
    return Fraction((2 * s) ** d, factorial(d))


def cross_slice_sum(d: int, s: int, k: int) -> Fraction:
    """Level-k slice-volume sum of s times the d-dimensional cross-polytope.

    The slice over y in Z^k with |y|_1 <= s is (s - |y|_1) times the
    (d-k)-dimensional cross-polytope; slices of lower dimension count 0.
    """
    total = Fraction(0)
    for y in itertools.product(range(-s, s + 1), repeat=k):
        r = s - sum(abs(c) for c in y)
        if r > 0:
            total += cross_volume(d - k, r)
    return total


def box_slice_sum(sides, k: int) -> Fraction:
    """Level-k slice-volume sum of a box: (prod_{i<=k} (a_i + 1)) prod_{i>k} a_i."""
    total = Fraction(1)
    for i, a in enumerate(sides):
        total *= (a + 1) if i < k else a
    return total


def poly_value(coeffs, m) -> Fraction:
    """Value at m of a polynomial given constant-first."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * m + c
    return total
