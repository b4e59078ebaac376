import itertools
import random
from fractions import Fraction

import pytest

from latticeface.linalg import (
    common_denominator,
    det,
    hnf,
    hnf_basis,
    identity,
    int_kernel,
    integer_rref,
    integer_solution,
    inverse,
    mat_vec,
    matmul,
    primitive_row,
    rank,
    rref,
    solve,
    transpose,
)
from oracles import cofactor_det, cofactor_inverse, rank_by_fractions, rref_by_fractions, solve_by_fractions


def test_det_identity():
    assert det(identity(3)) == 1


def test_det_lower_triangular():
    m = [[4, 0, 0], [3, 6, 0], [2, 2, 2]]
    assert cofactor_det(m) == 48  # oracle
    assert det(m) == 48


def test_det_row_swap_antisymmetry():
    m = [[3, 6, 0], [4, 0, 0], [2, 2, 2]]
    assert det(m) == -48


def test_det_of_empty_and_rational_matrices():
    assert det([]) == 1
    assert det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError, match="inverse requires a square matrix"):
        inverse([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="inverse requires a square matrix"):
        inverse([[1, 2], [3, 4], [5, 6]])


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    for b in ([1, 2, 99], [1], []):
        with pytest.raises(ValueError, match="right-hand side length"):
            solve([[1, 0], [0, 1]], b)


def _mixed_rational_matrix(rng, rows, cols):
    """Entries with several denominators in every row; zeros are common, so
    leading entries vanish and the elimination has to swap rows."""
    return [[rng.choice([0, 0, rng.randint(-6, 6),
                         Fraction(rng.randint(-9, 9), rng.choice([2, 3, 4, 5, 6, 7]))])
             for _ in range(cols)] for _ in range(rows)]


def test_det_matches_cofactor_oracle_on_mixed_denominators_with_row_swaps():
    rng = random.Random(45)
    swapped = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = _mixed_rational_matrix(rng, n, n)
        swapped += m[0][0] == 0 and any(row[0] != 0 for row in m)
        assert det(m) == cofactor_det(m)
    assert swapped > 30
    # A fixed case: two denominators per row, and a zero leading entry.
    m = [[0, Fraction(1, 2), Fraction(2, 3)], [Fraction(3, 4), 0, Fraction(-1, 5)],
         [Fraction(5, 6), Fraction(-7, 2), 1]]
    assert det(m) == cofactor_det(m) != 0


def test_solve_and_inverse_match_oracles_on_rational_systems():
    rng = random.Random(46)
    kinds = {"unique": 0, "free": 0, "inconsistent": 0}
    for case in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _mixed_rational_matrix(rng, rows, cols)
        if rows > 1 and case % 2:  # one row a combination of two others
            i, j = rng.sample(range(rows), 2)
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            a[i] = [x + t * y for x, y in zip(a[i], a[j])]
        if case % 3:
            x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            b = mat_vec(a, x0)
        else:
            b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rows)]
        x = solve(a, b)
        assert x == solve_by_fractions(a, b)
        r = rank_by_fractions(a)
        if rank_by_fractions([[*row, y] for row, y in zip(a, b)]) > r:
            assert x is None
            kinds["inconsistent"] += 1
        else:
            assert mat_vec(a, x) == b
            kinds["unique" if r == cols else "free"] += 1
        if rows == cols:
            if r == rows:
                inv = inverse(a)
                assert inv == cofactor_inverse(a)
                assert matmul(a, inv) == identity(rows)
            else:
                with pytest.raises(ValueError, match="singular"):
                    inverse(a)
    assert min(kinds.values()) > 30


def test_det_matches_cofactor_oracle_randomly():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det(m) == cofactor_det(m)


def test_hnf_identity():
    h, u = hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_example_2x2():
    m = [[2, 4], [0, 3]]
    h, u = hnf(m)
    assert h == [[2, 1], [0, 3]]
    assert matmul(u, m) == h
    assert abs(det(u)) == 1


def test_hnf_swap():
    m = [[0, 1], [1, 0]]
    h, u = hnf(m)
    assert h == [[1, 0], [0, 1]]
    assert u == [[0, 1], [1, 0]]
    assert matmul(u, m) == h


def _is_canonical_hnf(h):
    pivots = []
    seen_zero = False
    for row in h:
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        if nz is None:
            seen_zero = True
            continue
        if seen_zero:
            return False  # nonzero row after a zero row
        if pivots and nz <= pivots[-1]:
            return False
        if row[nz] <= 0:
            return False
        pivots.append(nz)
    for r, col in enumerate(pivots):
        piv = h[r][col]
        for i in range(r):
            if not 0 <= h[i][col] < piv:
                return False
    return True


def test_hnf_contract_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(500):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        h, u = hnf(m)
        assert matmul(u, m) == h
        assert abs(det(u)) == 1
        assert _is_canonical_hnf(h)
        h2, _ = hnf(h)
        assert h2 == h  # idempotent on its own output


def test_int_kernel():
    k = int_kernel([[1, 1]])
    assert k == [[1, -1]]
    k2 = int_kernel([[2, 4]])
    assert k2 == [[2, -1]]
    assert int_kernel([], ncols=2) == identity(2)


def test_solve_and_inverse():
    a = [[2, 1], [1, 3]]
    x = solve(a, [5, 5])
    assert x == [Fraction(2), Fraction(1)]
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    inv = inverse(a)
    assert matmul(a, inv) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        inverse([[1, 1], [2, 2]])


def test_rref_pivots():
    reduced, pivots = rref([[0, 2, 4], [1, 1, 1]])
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0


def test_primitive_row():
    assert primitive_row([Fraction(1, 2), Fraction(1, 2)]) == [1, 1]
    assert primitive_row([4, -6]) == [2, -3]
    assert primitive_row([0, 0]) == [0, 0]


def _reference_clear_denominators(row):
    # The definition before the integer fast path: a Fraction per entry, twice.
    scale = 1
    for x in row:
        d = Fraction(x).denominator
        scale = scale * d // _reference_gcd(scale, d)
    return [int(Fraction(x) * scale) for x in row]


def _reference_primitive_row(row):
    ints = _reference_clear_denominators(row)
    g = 0
    for x in ints:
        g = _reference_gcd(g, abs(x))
    return ints if g == 0 else [x // g for x in ints]


def _reference_gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def test_common_denominator_and_primitive_row_match_reference():
    rng = random.Random(23)
    rows = [[], [0], [0, 0, 0], [-6], [-4, 0, -10], [Fraction(0), Fraction(-3, 1)]]
    for _ in range(300):
        n = rng.randint(1, 6)
        kind = rng.randrange(4)
        if kind == 0:  # integers, with zeros and negatives
            row = [rng.randint(-12, 12) for _ in range(n)]
        elif kind == 1:  # integer-valued Fractions
            row = [Fraction(rng.randint(-12, 12)) for _ in range(n)]
        elif kind == 2:  # proper Fractions
            row = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(n)]
        else:  # ints and Fractions mixed, with a large common factor
            row = [rng.choice([rng.randint(-5, 5) * 360, Fraction(rng.randint(-5, 5), 7)])
                   for _ in range(n)]
        rows.append(row)
    for row in rows:
        cleared = common_denominator([row])[1][0]
        assert cleared == _reference_clear_denominators(row)
        assert all(type(x) is int for x in cleared)
        assert primitive_row(row) == _reference_primitive_row(row)


def test_integer_solution():
    # x + 2y = 5 has integer solutions.
    x = integer_solution([[1, 2]], [5])
    assert x is not None and x[0] + 2 * x[1] == 5
    # 2x + 4y = 3 has none.
    assert integer_solution([[2, 4]], [3]) is None
    # Fractional rhs never has integer solutions.
    assert integer_solution([[1, 0]], [Fraction(1, 2)]) is None
    # Consistent square system.
    x = integer_solution([[2, 1], [1, 1]], [3, 2])
    assert x == [1, 1]
    # Inconsistent system.
    assert integer_solution([[1, 0], [1, 0]], [0, 1]) is None


def test_integer_solution_random():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(a, x0)
        x = integer_solution(a, b)
        assert x is not None
        assert mat_vec(a, x) == b


def test_hnf_basis_drops_zero_rows():
    assert hnf_basis([[1, 1], [2, 2]]) == [[1, 1]]
    assert hnf_basis([[0, 0]]) == []


def test_transpose_empty():
    assert transpose([]) == []


def _minor_rank(m):
    """Rank as the size of the largest nonzero minor, by cofactor expansion."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if cofactor_det([[m[i][j] for j in cs] for i in rs]) != 0:
                    return k
    return 0


def test_elimination_views_on_random_rational_matrices():
    # det, rank and rref are views of one fraction-free elimination; check
    # each against oracles on square, rectangular and rank-deficient rational
    # matrices.
    rng = random.Random(41)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(rows), 2)
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[i] = [x + t * y for x, y in zip(m[i], m[j])]
            m[j] = [t * x for x in m[i]]  # rows i and j are now parallel
        reduced, pivots = rref(m)
        assert (reduced, pivots) == rref_by_fractions(m)
        assert rank(m) == len(pivots) == _minor_rank(m)
        for r, col in enumerate(pivots):
            assert [row[col] for row in reduced] == [int(i == r) for i in range(rows)]
        assert all(x == 0 for row in reduced[len(pivots):] for x in row)
        # Every input row is the combination of rref rows read off its pivot
        # entries; with equal ranks the two row spaces coincide.
        for row in m:
            combo = [sum(row[p] * reduced[r][j] for r, p in enumerate(pivots)) for j in range(cols)]
            assert combo == row
        if rows == cols:
            assert det(m) == cofactor_det(m)


def test_integer_rref_is_a_positive_multiple_of_rref():
    # Square, rectangular and rank-deficient integer matrices, the zero matrix
    # and a matrix with no rows.
    rng = random.Random(43)
    for _ in range(300):
        rows, cols = rng.randint(0, 5), rng.randint(1, 7)
        basis = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(0, rows))]
        m = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(cols)]
             for _ in range(rows)]
        reduced, pivots, scale = integer_rref(m)
        assert scale > 0 and all(type(x) is int for row in reduced for x in row)
        expected, expected_pivots = rref_by_fractions(m)
        assert pivots == expected_pivots
        assert reduced == [[scale * x for x in row] for row in expected]


def test_integer_rref_scaled_inverse_matches_inverse():
    rng = random.Random(44)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if cofactor_det(m) == 0:
            continue
        reduced, pivots, scale = integer_rref([row + identity(n)[i] for i, row in enumerate(m)])
        assert pivots == list(range(n))
        expected = cofactor_inverse(m)
        assert [[Fraction(x, scale) for x in row[n:]] for row in reduced] == expected == inverse(m)
        checked += 1
