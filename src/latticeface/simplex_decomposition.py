"""Signed decomposition of a fully general simplex into staircase regions.

For a full-dimensional d-simplex with vertices x_1..x_{d+1} and a permutation
``perm`` of the first d vertices, the determinant ratios z_1..z_d scale the
staircase region attached to the permutation.  Summed with signs over all
permutations they yield the level-1 slice-volume of the simplex in closed
form, along with two purely determinantal identities and a family of
alternating sums that vanish.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .errors import HypothesisError
from .integrality import generality_level
from .linalg import det
from .polytope import Polytope
from .report import Report, format_rational

MAX_PERMUTATION_DIM = 7


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    # Standard recurrence with the minus convention (B_1 = -1/2).
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * _bernoulli(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def power_sum_coefficients(k: int) -> tuple[Fraction, ...]:
    """Faulhaber coefficients of the degree-(k+1) power-sum polynomial.

    The polynomial extends n -> 1^k + 2^k + ... + n^k; its constant term is 0
    and its leading coefficient is 1/(k+1).  Coefficients are constant-first.
    """
    if k < 0:
        raise ValueError("power sum index must be nonnegative")
    coeffs = [Fraction(0)] * (k + 2)
    for j in range(k + 1):
        b = _bernoulli(j) if j != 1 else Fraction(1, 2)
        coeffs[k + 1 - j] = Fraction(comb(k + 1, j), k + 1) * b
    return tuple(coeffs)


def power_sum(k: int, x) -> Fraction:
    """Value of the k-th power-sum polynomial at a rational argument."""
    value = Fraction(0)
    for c in reversed(power_sum_coefficients(k)):
        value = value * Fraction(x) + c
    return value


def _permutation_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def determinant_ratios(vertices, perm) -> list[Fraction]:
    """The ratios z_1..z_d of augmented leading-coordinate determinants.

    ``vertices`` lists the d+1 simplex vertices, the last one held fixed;
    ``perm`` permutes the indices 0..d-1.  Each ratio is nonzero exactly when
    the simplex is in fully general position; a vanishing determinant raises.
    """
    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    d = len(verts) - 1
    if sorted(perm) != list(range(d)):
        raise ValueError("perm must be a permutation of 0..d-1")
    ratios = []
    for k in range(1, d + 1):
        x_rows = [[1, *verts[perm[i]][:k]] for i in range(k)] + [[1, *verts[d][:k]]]
        y_rows = [[1, *verts[perm[i]][: k - 1]] for i in range(k)]
        num = det(x_rows)
        den = det(y_rows)
        if den == 0 or num == 0:
            raise HypothesisError(
                "simplex is not in fully general position",
                f"vanishing determinant at level {k} for permutation {perm}",
            )
        ratios.append(num / den)
    return ratios


def _check_simplex(poly: Polytope) -> int:
    if poly.is_empty:
        raise ValueError("empty polytope")
    d = poly.dim
    if d != poly.ambient_dim:
        raise ValueError("simplex must be full-dimensional in its ambient space")
    if len(poly.vertices) != d + 1:
        raise ValueError("polytope is not a simplex")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d > MAX_PERMUTATION_DIM:
        raise ValueError(
            f"permutation enumeration is capped at dimension {MAX_PERMUTATION_DIM}"
        )
    return d


def _require_integral_general(poly: Polytope, d: int, need_integral: bool = True) -> None:
    if need_integral and any(x.denominator != 1 for v in poly.vertices for x in v):
        raise HypothesisError("simplex is not integral")
    cert = generality_level(poly)
    if cert.max_level < d:
        raise HypothesisError(
            "simplex is not in fully general position", cert.describe_witness()
        )


def _signed_ratios(poly: Polytope, d: int) -> list[tuple[int, list[Fraction]]]:
    """The (sign, determinant ratios) table over all permutations of the first
    d vertices; every identity below is evaluated on it."""
    return [
        (_permutation_sign(perm), determinant_ratios(poly.vertices, perm))
        for perm in itertools.permutations(range(d))
    ]


def _staircase_sums(table, d: int) -> tuple[Fraction, Fraction]:
    """The alternating power-sum expression and the alternating product of
    determinant ratios divided by d!; both equal det/d! on integral fully
    general simplices."""
    signed_sum = Fraction(0)
    ratio_sum = Fraction(0)
    for sign, z in table:
        product = prod(z)
        signed_sum += sign * product / z[0] ** d * power_sum(d - 1, z[0])
        ratio_sum += sign * product
    return signed_sum / factorial(d - 1), ratio_sum / factorial(d)


def _signed_report(poly: Polytope, d: int, table) -> Report:
    signed_sum, ratio_sum = _staircase_sums(table, d)
    rhs = det([[1, *v] for v in poly.vertices]) / factorial(d)
    equal = signed_sum == rhs and ratio_sum == rhs
    if not equal:
        raise RuntimeError("signed decomposition identity failed despite hypotheses")
    return Report(
        identity="signed-staircase-sum",
        hypotheses=(("integral", True), ("fully general position", True)),
        lhs=signed_sum,
        rhs=rhs,
        equal=equal,
        details={"determinant_ratio_sum": format_rational(ratio_sum)},
    )


def _vanishing_report(table, arity: int, excess: int, weight, **details) -> Report:
    total = Fraction(0)
    for sign, z in table:
        q = Fraction(weight(*z[:arity]))
        total += sign * q * prod(z[arity:]) / z[arity] ** (excess + 1)
    equal = total == 0
    if not equal:
        raise RuntimeError("alternating ratio sum failed to vanish despite hypotheses")
    return Report(
        identity="vanishing-ratio-sum",
        hypotheses=(("fully general position", True),),
        lhs=total,
        rhs=Fraction(0),
        equal=equal,
        details={"arity": arity, "excess": excess, **details},
    )


def simplex_slice_volume(poly: Polytope) -> Fraction:
    """Level-1 slice-volume of an integral fully general simplex, in closed form.

    Equals both the slice-volume sum at k = 1 and the normalized volume of the
    simplex; no slices are enumerated.  The signed staircase sum gives det/d!,
    so orienting it by the sign of det gives |det|/d!.
    """
    d = _check_simplex(poly)
    _require_integral_general(poly, d)
    signed_sum, _ = _staircase_sums(_signed_ratios(poly, d), d)
    return signed_sum if det([[1, *v] for v in poly.vertices]) > 0 else -signed_sum


def verify_signed_decomposition(poly: Polytope) -> Report:
    """Check the signed staircase sum and its determinant rewriting exactly.

    Both the alternating power-sum expression and the alternating product of
    determinant ratios must equal det/d! for an integral fully general simplex.
    """
    d = _check_simplex(poly)
    _require_integral_general(poly, d)
    return _signed_report(poly, d, _signed_ratios(poly, d))


def verify_vanishing_sum(poly: Polytope, arity: int, excess: int, weight=None) -> Report:
    """Check one alternating ratio sum that must vanish on fully general simplices.

    ``weight`` is a function of the first ``arity`` determinant ratios (constant
    1 when omitted); ``excess`` raises the power of ratio ``arity + 1`` in the
    denominator.  Requires arity + excess <= d - 2.
    """
    d = _check_simplex(poly)
    if arity < 0 or excess < 0 or arity + excess > d - 2:
        raise ValueError(
            f"need 0 <= arity + excess <= d - 2 = {d - 2}, got arity={arity}, excess={excess}"
        )
    _require_integral_general(poly, d, need_integral=False)
    if weight is None:
        weight = lambda *zs: 1
    return _vanishing_report(_signed_ratios(poly, d), arity, excess, weight)


def verify_simplex_identities(poly: Polytope) -> tuple[Report, list[Report]]:
    """The signed decomposition and the whole vanishing-sum sweep, from one
    hypothesis check and one ratio table.

    The sweep covers 0 <= arity <= d - 2, 0 <= excess <= d - 2 - arity and
    every monomial weight z_1^e_1 ... z_arity^e_arity with exponents in
    {0, 1, 2} summing to at most 2, in that nesting order; each report names
    its ``arity``, ``excess`` and ``monomial_exponents`` in ``details``.
    """
    d = _check_simplex(poly)
    _require_integral_general(poly, d)
    table = _signed_ratios(poly, d)
    signed = _signed_report(poly, d, table)
    sweep = [
        _vanishing_report(
            table, arity, excess,
            lambda *zs, _e=exponents: prod(z**e for z, e in zip(zs, _e)),
            monomial_exponents=list(exponents),
        )
        for arity in range(d - 1)
        for excess in range(d - 1 - arity)
        for exponents in itertools.product(range(3), repeat=arity)
        if sum(exponents) <= 2
    ]
    return signed, sweep
