"""Signed decomposition of a fully general simplex into staircase regions.

For a full-dimensional d-simplex with vertices x_1..x_{d+1} and a permutation
``perm`` of the first d vertices, the determinant ratios z_1..z_d scale the
staircase region attached to the permutation.  Summed with signs over all
permutations they yield the level-1 slice-volume of the simplex in closed
form, along with two purely determinantal identities and a family of
alternating sums that vanish.  As z_k depends only on the set perm[:k], each
such sum runs over the chains of subsets instead (Held and Karp, 1962): one
ratio per subset, 2 (2^d - 1) determinants, and the sign of ``perm`` factors
along its chain.  Dimension MAX_PERMUTATION_DIM = 7 takes seconds.
Below the weights the sums run in integers, as Bareiss's elimination runs
each minor: z_S = n_S / L_j over the lcm L_j of the ratios' denominators at
level j = |S|, and the chain tails are kept times L_{j+1} ... L_d.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .integrality import HypothesisError, require, unmet
from .linalg import common_denominator, integer_det
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


def _ratio(ints, chosen, den: int) -> Fraction | None:
    """z_k of the k vertices ``chosen`` (in that row order) and the last
    vertex, all given as ``ints`` / ``den``: a quotient of augmented
    leading-coordinate minors (scaled by den^k and den^(k-1)), or None when
    one of them vanishes."""
    k = len(chosen)
    num = integer_det([[1, *ints[i][:k]] for i in chosen] + [[1, *ints[-1][:k]]])
    sub = integer_det([[1, *ints[i][: k - 1]] for i in chosen])
    return Fraction(num, den * sub) if num and sub else None


def determinant_ratios(vertices, perm) -> list[Fraction]:
    """The ratios z_1..z_d of augmented leading-coordinate determinants.

    ``vertices`` lists the d+1 simplex vertices, the last one held fixed;
    ``perm`` permutes the indices 0..d-1.  Each ratio is nonzero exactly when
    the simplex is in fully general position; a vanishing determinant raises.
    """
    den, ints = common_denominator([[Fraction(x) for x in v] for v in vertices])
    d = len(ints) - 1
    if sorted(perm) != list(range(d)):
        raise ValueError("perm must be a permutation of 0..d-1")
    ratios = [_ratio(ints, perm[:k], den) for k in range(1, d + 1)]
    if None in ratios:
        level = ratios.index(None) + 1
        raise HypothesisError(unmet(
            d, d, f"vanishing determinant at level {level} for permutation {perm}", general=True
        ))
    return ratios


def _check_simplex(poly: Polytope) -> int:
    if poly.is_empty:
        raise ValueError("empty polytope")
    d = poly.dim
    if d != poly.ambient_dim:
        raise ValueError("simplex must be full-dimensional in its ambient space")
    if len(poly.integer_vertices[1]) != d + 1:
        raise ValueError("polytope is not a simplex")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d > MAX_PERMUTATION_DIM:
        raise ValueError(f"permutation enumeration is capped at dimension {MAX_PERMUTATION_DIM}")
    return d


def _step_sign(mask: int, x: int) -> int:
    """The sign that appending vertex x after the vertex set ``mask`` adds to
    a permutation: one inversion per earlier vertex of larger index."""
    return -1 if (mask >> (x + 1)).bit_count() % 2 else 1


_ChainTable = namedtuple("_ChainTable", "ratios nums tails lcms")


def _chain_table(poly: Polytope, d: int) -> _ChainTable:
    """By the bitmask of each subset S of the first d vertices: its ratio z_S,
    n_S = z_S * L_|S|, and L_{|S|+1} ... L_d times the signed sum of the ratio
    products of the chains from S up to all d vertices, filled by one pass
    from the largest subsets down; and L_j by level j."""
    den, ints = poly.integer_vertices
    full = (1 << d) - 1
    ratios = [None] + [_ratio(ints, [i for i in range(d) if mask >> i & 1], den)
                       for mask in range(1, full + 1)]
    if None in ratios[1:]:
        raise RuntimeError("a determinant ratio vanished on a fully general simplex")
    lcms = [lcm(*(z.denominator for m, z in enumerate(ratios) if m and m.bit_count() == j))
            for j in range(d + 1)]
    nums = [0] + [z.numerator * (lcms[mask.bit_count()] // z.denominator)
                  for mask, z in enumerate(ratios[1:], 1)]
    tails = [0] * full + [1]
    for mask in range(full - 1, -1, -1):
        tails[mask] = sum(_step_sign(mask, x) * nums[mask | 1 << x] * tails[mask | 1 << x]
                          for x in range(d) if not mask >> x & 1)
    return _ChainTable(ratios, nums, tails, lcms)


def _chain_sum(table: _ChainTable, arity: int, weight, last: dict[int, Fraction | int]) -> Fraction:
    """The sum over permutations of the first d vertices of
    sign * weight(z_1..z_arity) * last(z_{arity+1}) * z_{arity+2} ... z_d,
    for the Laurent polynomial ``last`` = {power: coefficient}, listing only
    the ordered arity-prefixes; the chain table does the rest.  At level
    j = arity + 1 and with q = max(-p, 0), z^p * tail is n^(p+q) L_j^q t over
    n^q L_j^(p+q) L_{j+1} ... L_d: one integer sum per head and power."""
    ratios, nums, tails, lcms = table
    d = len(lcms) - 1
    prefixes = [(1, 0, ())]
    for _ in range(arity):
        prefixes = [(sign * _step_sign(mask, x), mask | 1 << x, zs + (ratios[mask | 1 << x],))
                    for sign, mask, zs in prefixes for x in range(d) if not mask >> x & 1]
    heads: dict[int, Fraction] = {}
    for sign, mask, zs in prefixes:
        w, h = Fraction(weight(*zs)), heads.get(mask, 0)
        heads[mask] = h + w if sign > 0 else h - w
    level, below = lcms[arity + 1], prod(lcms[arity + 2:])
    total = Fraction(0)
    for mask, head in heads.items():
        terms = [(_step_sign(mask, x) * tails[mask | 1 << x], nums[mask | 1 << x])
                 for x in range(d) if not mask >> x & 1]
        for p, c in last.items():
            q = max(-p, 0)
            den = lcm(*(n**q for _, n in terms))
            num = sum(t * n ** (p + q) * (den // n**q) for t, n in terms)
            total += Fraction(head.numerator * c.numerator * num * level**q,
                              head.denominator * c.denominator * den * level ** (p + q) * below)
    return total


def _signed_report(poly: Polytope, d: int, table, conditions) -> Report:
    """The alternating power-sum expression over (d-1)! and the alternating
    product of determinant ratios (the chain sum from the empty set) over d!;
    both equal det/d! under ``conditions``, the integrality and full general
    position that ``require`` certified, so a ratio sum that differs raises."""
    last = {i + 1 - d: c for i, c in enumerate(power_sum_coefficients(d - 1))}  # z^(1-d) power_sum
    signed_sum = _chain_sum(table, 0, lambda: 1, last) / factorial(d - 1)
    ratio_sum = Fraction(table.tails[0], prod(table.lcms) * factorial(d))
    den, ints = poly.integer_vertices
    rhs = Fraction(integer_det([[1, *v] for v in ints]), den**d * factorial(d))
    if ratio_sum != rhs:
        raise RuntimeError("determinant-ratio sum differs from det/d! although its hypotheses hold")
    return Report(
        identity="signed-staircase-sum",
        hypotheses=conditions,
        lhs=signed_sum,
        rhs=rhs,
        details={"determinant_ratio_sum": format_rational(ratio_sum)},
    )


def _vanishing_report(table, conditions, arity: int, excess: int, weight, **details) -> Report:
    return Report(
        identity="vanishing-ratio-sum",
        hypotheses=conditions,
        lhs=_chain_sum(table, arity, weight, {-excess: 1}),
        rhs=Fraction(0),
        details={"arity": arity, "excess": excess, **details},
    )


def simplex_slice_volume(poly: Polytope) -> Fraction:
    """Level-1 slice-volume of an integral fully general simplex, in closed form.

    Equals both the slice-volume sum at k = 1 and the normalized volume of the
    simplex; no slices are enumerated.  The signed staircase sum is checked to
    equal det/d!, so its absolute value is |det|/d!.
    """
    return abs(verify_signed_decomposition(poly).lhs)


def verify_signed_decomposition(poly: Polytope) -> Report:
    """Check the signed staircase sum and its determinant rewriting exactly.

    Both the alternating power-sum expression and the alternating product of
    determinant ratios must equal det/d! for an integral fully general simplex.
    """
    d = _check_simplex(poly)
    conditions = require(poly, integral=0, general=d).conditions
    return _signed_report(poly, d, _chain_table(poly, d), conditions)


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
    conditions = require(poly, general=d).conditions
    weight = (lambda *zs: 1) if weight is None else weight
    return _vanishing_report(_chain_table(poly, d), conditions, arity, excess, weight)


def verify_simplex_identities(poly: Polytope) -> tuple[Report, list[Report]]:
    """The signed decomposition and the whole vanishing-sum sweep, from one
    hypothesis check and one ratio table.

    The sweep covers 0 <= arity <= d - 2, 0 <= excess <= d - 2 - arity and
    every monomial weight z_1^e_1 ... z_arity^e_arity with exponents in
    {0, 1, 2} summing to at most 2, in that nesting order; each report names
    its ``arity``, ``excess`` and ``monomial_exponents`` in ``details``.
    """
    d = _check_simplex(poly)
    integral, general = require(poly, integral=0, general=d).conditions
    table = _chain_table(poly, d)
    signed = _signed_report(poly, d, table, (integral, general))
    sweep = [  # each sum needs only the general position
        _vanishing_report(
            table, (general,), arity, excess,
            lambda *zs, _e=exponents: prod(z**e for z, e in zip(zs, _e) if e),
            monomial_exponents=list(exponents),
        )
        for arity in range(d - 1)
        for excess in range(d - 1 - arity)
        for exponents in itertools.product(range(3), repeat=arity)
        if sum(exponents) <= 2
    ]
    return signed, sweep
