"""Independent brute-force oracles used to derive and cross-check expected values.

These deliberately avoid the library's own algorithms: determinants use cofactor
expansion, ranks and rrefs a textbook ``Fraction`` Gauss-Jordan elimination
(the library has only its fraction-free kernel), lattice questions use box
enumeration or Hermite normal forms, point counts scan a full bounding box,
and simplex sums run over all permutations.  Slow but obviously correct at
test scale.  ``reduce_by_rehulling`` is the exception: it uses the library's
hull and level scan, but builds and scans a new polytope after every step of
the reduction instead of following P's faces through the map.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from latticeface import (
    AffineMap,
    HypothesisError,
    LevelCertificate,
    Polytope,
    apply_affine,
    determinant_ratios,
    find_generic_integer_vector,
    generality_level,
    level_certificates,
    power_sum,
    saturate,
    split,
)
from latticeface.linalg import (
    clear_denominators, dot, identity, int_kernel, integer_solution, inverse
)
from latticeface.reduction import _embedding_basis
from latticeface.volume import affine_lattice_point


def rref_by_fractions(m):
    """Reduced row-echelon form (zero rows last) and its pivot columns by
    textbook Gauss-Jordan elimination on ``Fraction`` entries: unit pivots,
    forward elimination below each pivot, then one upward pass."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(r + 1, rows):
            f = a[i][col]
            if f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    for r, col in enumerate(pivots):
        for i in range(r):
            f = a[i][col]
            if f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
    return a, pivots


def rank_by_fractions(m) -> int:
    return len(rref_by_fractions(m)[1])


def solve_by_fractions(a, b):
    """The solution of ``a @ x = b`` with every free variable 0, read off
    ``rref_by_fractions`` of [a | b], or None when the system is inconsistent."""
    cols = len(a[0]) if a else 0
    reduced, pivots = rref_by_fractions([[*row, y] for row, y in zip(a, b)])
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = reduced[r][cols]
    return x


def cofactor_det(m) -> Fraction:
    return Fraction(_cofactor_expansion(m))


def matmul_by_fractions(a, b):
    """The matrix product of ``a`` and ``b`` entry by entry, each entry a sum
    of ``Fraction`` products."""
    return [[sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def cofactor_inverse(m):
    """The adjugate over the determinant, every entry a cofactor determinant."""
    n = len(m)
    d = cofactor_det(m)

    def cofactor(i, j):
        minor = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(m) if r != i]
        return (-1) ** (i + j) * cofactor_det(minor)

    return [[cofactor(j, i) / d for j in range(n)] for i in range(n)]


def _cofactor_expansion(m):
    # Plain arithmetic on the entries, so integer matrices stay in int.
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[jj] for jj in range(n) if jj != j] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * m[0][j] * _cofactor_expansion(minor)
    return total


def integer_points_of_span_in_box(span_rows, dim: int, bound: int):
    """All integer points of the rational row span with coordinates in [-bound, bound]."""
    pts = []
    base_rank = rank_by_fractions(span_rows) if span_rows else 0
    for cand in itertools.product(range(-bound, bound + 1), repeat=dim):
        if all(c == 0 for c in cand):
            pts.append(cand)
            continue
        stacked = [list(r) for r in span_rows] + [list(cand)]
        if rank_by_fractions(stacked) == base_rank:
            pts.append(cand)
    return pts


def integer_combinations_in_box(basis_rows, coeff_bound: int):
    """All integer combinations of basis rows with coefficients in [-bound, bound]."""
    if not basis_rows:
        return [()]
    dim = len(basis_rows[0])
    pts = set()
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(basis_rows)):
        pt = tuple(sum(c * row[j] for c, row in zip(coeffs, basis_rows)) for j in range(dim))
        pts.add(pt)
    return pts


def count_by_box_scan(vertices, m: int = 1) -> int:
    """Lattice points of m * conv(vertices) by scanning the dilated bounding box.

    Membership is tested by exact LP-free means: a point is in the hull iff
    adding it does not enlarge the hull (checked via the support-function trick
    below on every facet candidate would be circular, so instead we test
    convex-combination solvability with rational elimination).
    """
    scaled = [[m * Fraction(x) for x in v] for v in vertices]
    dim = len(scaled[0])
    los = [min(v[i] for v in scaled) for i in range(dim)]
    his = [max(v[i] for v in scaled) for i in range(dim)]
    ranges = [range(_ceil(lo), _floor(hi) + 1) for lo, hi in zip(los, his)]
    return sum(1 for pt in itertools.product(*ranges) if in_hull(scaled, pt))


def ehrhart_by_box_counts(vertices) -> tuple[Fraction, ...]:
    """Ehrhart coefficients, constant first, of conv(vertices): the box-scan
    counts at m = 1..d+1 interpolated with ``solve_by_fractions``, where d is
    the rank of the edge vectors from the first vertex."""
    d = rank_by_fractions([[Fraction(x) - y for x, y in zip(v, vertices[0])] for v in vertices[1:]])
    counts = [count_by_box_scan(vertices, m) for m in range(1, d + 2)]
    vandermonde = [[Fraction(m) ** j for j in range(d + 1)] for m in range(1, d + 2)]
    return tuple(solve_by_fractions(vandermonde, counts))


def in_hull(vertices, point) -> bool:
    """Exact convex-hull membership via a tiny rational simplex-phase-1 solve."""
    n = len(vertices)
    dim = len(point)
    # Feasibility of sum(l_i v_i) = p, sum(l_i) = 1, l_i >= 0.
    rows = [[Fraction(v[i]) for v in vertices] for i in range(dim)]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(x) for x in point] + [Fraction(1)]
    return _phase1_feasible(rows, rhs)


def _phase1_feasible(a, b) -> bool:
    m = len(a)
    n = len(a[0])
    # Make rhs nonnegative, add artificial variables, minimize their sum.
    tab = []
    for i in range(m):
        row = list(a[i])
        bi = b[i]
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        tab.append(row + [Fraction(int(i == j)) for j in range(m)] + [bi])
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        cost = [c - t for c, t in zip(cost, tab[i])]
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(tab[i][-1] / tab[i][enter], i) for i in range(m) if tab[i][enter] > 0]
        if not ratios:
            break
        _, leave = min(ratios, key=lambda t: (t[0], basis[t[1]]))
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    return -cost[-1] == 0


def hull_by_subset_scan(points):
    """Vertices, facet inequalities and facet vertex sets of conv(points) by
    testing every d-subset of the points for a supporting hyperplane.

    The affine dimension d and the chart columns (the first coordinates that
    are independent on the affine hull) come from ranks; each facet normal is
    the vector of signed (d-1)-minors of the subset's difference vectors
    (cofactor determinants), and a point is a vertex iff it is not in the hull
    of the other points (``in_hull``).  Inequalities are returned in the
    library's canonical form: sorted primitive integer rows (normal, rhs),
    zero off the chart columns.  Exponential in d; for tests only.
    """
    pts = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    diffs = [[x - y for x, y in zip(p, pts[0])] for p in pts[1:]]
    cols: list[int] = []
    for j in range(len(pts[0])):
        if diffs and rank_by_fractions([[r[c] for c in cols + [j]] for r in diffs]) > len(cols):
            cols.append(j)
    d = len(cols)
    if d == 0:
        return pts, [], []
    # Scaled to integers by the common denominator, so the minors stay in int.
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    chart = [[int(p[c] * scale) for c in cols] for p in pts]
    rows = set()
    for subset in itertools.combinations(range(len(pts)), d):
        q0 = chart[subset[0]]
        m = [[x - y for x, y in zip(chart[i], q0)] for i in subset[1:]]
        normal = [(-1) ** k * int(cofactor_det([r[:k] + r[k + 1:] for r in m])) for k in range(d)]
        if not any(normal):
            continue
        rhs = sum(a * x for a, x in zip(normal, q0))
        vals = [sum(a * x for a, x in zip(normal, q)) - rhs for q in chart]
        if all(v >= 0 for v in vals):
            normal, rhs = [-a for a in normal], -rhs
        elif not all(v <= 0 for v in vals):
            continue
        # normal . (scale x) <= rhs, i.e. (scale normal) . x <= rhs, made primitive.
        row = [0] * len(pts[0]) + [rhs]
        for k, c in enumerate(cols):
            row[c] = scale * normal[k]
        g = math.gcd(*row)
        rows.add((tuple(x // g for x in row[:-1]), row[-1] // g))
    inequalities = sorted(rows)
    vertices = [p for i, p in enumerate(pts) if not in_hull(pts[:i] + pts[i + 1:], p)]
    facet_sets = [
        frozenset(v for v, p in enumerate(vertices) if sum(a * x for a, x in zip(n, p)) == b)
        for n, b in inequalities
    ]
    return vertices, inequalities, facet_sets


def cut_by_fractions(vertices, edges, vals):
    """The points that cut a polytope where an affine function vanishes, in
    ``Fraction`` arithmetic: the vertices where its values ``vals`` are 0,
    then, edge (i, j) by edge, x + t (y - x) with t = vals[i] / (vals[i] -
    vals[j]) where it changes sign between vertices x and y."""
    pts = [v for v, val in zip(vertices, vals) if val == 0]
    for i, j in edges:
        vi, vj = vals[i], vals[j]
        if (vi < 0 < vj) or (vj < 0 < vi):
            t = vi / (vi - vj)
            pts.append(tuple(x + t * (y - x) for x, y in zip(vertices[i], vertices[j])))
    return pts


def _ceil(x: Fraction) -> int:
    return -((-x).__floor__())


def _floor(x: Fraction) -> int:
    return x.__floor__()


def faces_by_closure(poly):
    """Vertex index tuples of the faces of ``poly``, by dimension, as the
    closure of its facets under intersection, each face's dimension taken as
    the rank of its vertex differences.

    The facets are read off the H-representation (the vertices tight on each
    inequality), so the library's face lattice is not used.
    """
    n = len(poly.vertices)
    by_dim = {d: [] for d in range(poly.dim + 1)}
    by_dim[poly.dim] = [tuple(range(n))]
    facets = {
        frozenset(i for i, v in enumerate(poly.vertices) if sum(x * y for x, y in zip(a, v)) == b)
        for a, b in poly.hrep.inequalities
    }
    closed = set(facets)
    frontier = set(closed)
    while frontier:
        fresh = {s & f for s in frontier for f in facets} - closed - {frozenset()}
        closed |= fresh
        frontier = fresh
    for s in closed:
        idx = tuple(sorted(s))
        base = poly.vertices[idx[0]]
        diffs = [[x - y for x, y in zip(poly.vertices[i], base)] for i in idx[1:]]
        by_dim[rank_by_fractions(diffs)].append(idx)
    return {d: sorted(faces) for d, faces in by_dim.items()}


def triangulation_by_subhulls(poly, first_coordinate: bool = False):
    """Sorted vertex index tuples of the cone triangulation of ``poly``, built
    by re-hulling every facet as its own polytope at every depth.

    The apex of each cone is the lexicographically least vertex, or with
    ``first_coordinate`` the vertex of least first coordinate, after the
    1-general position check that ``triangulate_1general`` makes; that mode
    raises ``HypothesisError`` with the library's messages.
    """
    def apex_of(sub):
        if not first_coordinate:
            return min(sub.vertices)
        lowest = min(v[0] for v in sub.vertices)
        hits = [v for v in sub.vertices if v[0] == lowest]
        if len(hits) != 1:
            raise HypothesisError(
                "polytope is not in 1-general position: "
                f"vertices {hits[0]} and {hits[1]} share the minimal first coordinate"
            )
        return hits[0]

    def cone(sub):
        if len(sub.vertices) == sub.dim + 1:
            return [frozenset(sub.vertices)]
        apex = apex_of(sub)
        cells = []
        for facet in faces_by_closure(sub)[sub.dim - 1]:
            pts = [sub.vertices[i] for i in facet]
            if apex not in pts:
                cells += [cell | {apex} for cell in cone(Polytope(sub.ambient_dim, pts))]
        return cells

    if first_coordinate:
        cert = generality_level(poly)
        if cert.max_level < 1:
            raise HypothesisError(f"polytope is not in 1-general position: {cert.describe_witness()}")
    index = {v: i for i, v in enumerate(poly.vertices)}
    return tuple(sorted(tuple(sorted(index[p] for p in cell)) for cell in cone(poly)))


def normalized_volume_by_coordinates(poly, lattice) -> Fraction:
    """``normalized_volume`` cell by cell in lattice coordinates: every edge of
    every cell of ``triangulation_by_subhulls(poly)`` is solved for its
    coordinates in the lattice basis (``solve_by_fractions``), and the cell's
    volume is the cofactor determinant of those coordinates.  ``poly`` must be
    full-dimensional in the lattice span."""
    if poly.dim != lattice.rank:
        raise ValueError("the oracle needs dim(P) equal to the lattice rank")
    if poly.dim == 0:
        return Fraction(1)
    columns = [list(col) for col in zip(*lattice.basis)]
    total = Fraction(0)
    for cell in triangulation_by_subhulls(poly):
        base = poly.vertices[cell[0]]
        coords = [solve_by_fractions(columns, [x - b for x, b in zip(poly.vertices[i], base)])
                  for i in cell[1:]]
        if any(c is None for c in coords):
            raise ValueError("a cell edge leaves the lattice span")
        total += abs(cofactor_det(coords))
    return total / math.factorial(poly.dim)


def cyclic_volume(ts, d: int) -> Fraction:
    """Volume of the cyclic polytope conv{(t, t^2, .., t^d) : t in ts}, with no
    hull and no triangulation.  By Gale's evenness criterion the facets of the
    cyclic polytope on the same ts one dimension up are the (d+1)-subsets S
    with an even number of members between any two non-members; its lower
    and its upper facets each project to a triangulation of the
    d-dimensional one, so those simplices cover it twice, and the simplex on
    S has the Vandermonde volume prod_{a<b in S} (t_b - t_a) / d!."""
    ts = sorted(ts)
    n = len(ts)
    if len(set(ts)) != n or n < d + 2:
        raise ValueError("the cyclic volume needs at least d + 2 distinct parameters")
    total = 0
    for subset in itertools.combinations(range(n), d + 1):
        gaps = [i for i in range(n) if i not in subset]  # b - a - 1 members lie between
        if all((b - a) % 2 for a, b in zip(gaps, gaps[1:])):
            total += math.prod(ts[b] - ts[a] for a, b in itertools.combinations(subset, 2))
    return Fraction(total, 2 * math.factorial(d))


def subspace_is_integral_by_hnf(lin_basis) -> bool:
    """Whether the lattice of the row span U surjects onto Z^dim(U) under
    dropping trailing coordinates: saturate the span, then split off the
    projection of its lattice with a Hermite normal form."""
    rows = [list(r) for r in lin_basis]
    r = len(rows)
    if r == 0:
        return True
    if rank_by_fractions(rows) != r:
        raise ValueError("basis rows are linearly dependent")
    proj = split(saturate(rows), r).projection
    return list(proj.basis) == [tuple(row) for row in identity(r)]


def subspace_in_general_position_by_rank(lin_basis) -> bool:
    """Whether the row span surjects onto the leading dim(U) coordinates."""
    rows = [list(r) for r in lin_basis]
    r = len(rows)
    if r == 0:
        return True
    if rank_by_fractions(rows) != r:
        raise ValueError("basis rows are linearly dependent")
    return rank_by_fractions([row[:r] for row in rows]) == r


def affine_is_integral_by_hnf(point, lin_basis) -> bool:
    """Whether point + span(lin_basis) has an integral direction space and a
    lattice point, the latter by an integer solve of its defining equations."""
    rows = [list(r) for r in lin_basis]
    if not rows:
        return all(Fraction(x).denominator == 1 for x in point)
    if not subspace_is_integral_by_hnf(rows):
        return False
    constraints = int_kernel([clear_denominators(r) for r in rows], ncols=len(point))
    rhs = [dot(c, point) for c in constraints]
    if any(Fraction(v).denominator != 1 for v in rhs):
        return False
    return integer_solution(constraints, rhs) is not None


def levels_by_hnf(poly) -> tuple[LevelCertificate, LevelCertificate]:
    """The integrality and generality certificates of ``poly`` by two
    separate face scans with the tests above, each face's direction space
    spanned by a rank-selected subset of its vertex differences."""
    def scan(test, reason):
        for ell in range(poly.dim + 1):
            for face in poly.faces(ell):
                pts = poly.face_vertices(face)
                rows = []
                for p in pts[1:]:
                    diff = [x - b for x, b in zip(p, pts[0])]
                    if rank_by_fractions(rows + [diff]) > len(rows):
                        rows.append(diff)
                if not test(pts[0], rows):
                    return LevelCertificate(ell - 1, face, pts, reason)
        return LevelCertificate(poly.dim)

    return (
        scan(affine_is_integral_by_hnf, "is not affinely integral"),
        scan(lambda _base, rows: subspace_in_general_position_by_rank(rows),
             "is not in affinely general position"),
    )


def permutation_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def permutation_table(poly):
    """(sign, determinant ratios z_1..z_d) for every permutation of the first
    d vertices of a simplex, in ``itertools.permutations`` order."""
    return [
        (permutation_sign(perm), determinant_ratios(poly.vertices, perm))
        for perm in itertools.permutations(range(poly.dim))
    ]


def staircase_sums_by_permutations(table) -> tuple[Fraction, Fraction]:
    """The signed power-sum expression over (d-1)! and the alternating ratio
    product over d!, each summed term by term over a ``permutation_table``."""
    d = len(table[0][1])
    signed_sum = ratio_sum = Fraction(0)
    for sign, z in table:
        product = math.prod(z)
        signed_sum += sign * product / z[0] ** d * power_sum(d - 1, z[0])
        ratio_sum += sign * product
    return signed_sum / math.factorial(d - 1), ratio_sum / math.factorial(d)


def vanishing_sum_by_permutations(table, arity: int, excess: int, weight) -> Fraction:
    """The sum over a ``permutation_table`` of sign * weight(z_1..z_arity) *
    z_{arity+1} ... z_d / z_{arity+1}^(excess+1)."""
    total = Fraction(0)
    for sign, z in table:
        term = Fraction(weight(*z[:arity])) * math.prod(z[arity:]) / z[arity] ** (excess + 1)
        total += sign * term
    return total


def reduce_by_rehulling(poly, k):
    """``reduce_to_full_general`` with a new hull and a new level scan after
    every step: P is mapped into R^D, projected to R^dim(P) and rescanned,
    then sheared one generality level at a time, each shear followed by the
    hull of the sheared vertices and its scan, which gives the next level.

    Returns the map, the image and the steps composed into the map: the
    embedding (translation by -s, then the staircase coordinates), then the
    shears, each a map of R^dim(P).
    """
    if poly.is_empty or poly.dim < 1:
        raise ValueError("reduction requires a polytope of dimension >= 1")
    d = poly.dim
    big = poly.ambient_dim
    if not 0 < k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    shift = affine_lattice_point(poly)
    cert_int, cert_gen = level_certificates(poly)
    if cert_int.max_level < k - 1:
        raise HypothesisError(
            f"polytope is not {'integral' if k == 1 else f'{k - 1}-integral'}: "
            f"{cert_int.describe_witness()}"
        )
    if cert_gen.max_level < k:
        raise HypothesisError(
            f"polytope is not in {k}-general position: {cert_gen.describe_witness()}"
        )

    to_coords = AffineMap.linear(inverse(_embedding_basis(poly, k)))
    phi = AffineMap.translation([-x for x in shift]).then(to_coords)
    steps = [phi]
    image = poly if phi == AffineMap.identity(big) else apply_affine(poly, phi)
    if any(v[j] != 0 for v in image.vertices for j in range(d, big)):
        raise RuntimeError("image does not lie in the leading coordinate subspace")
    current = image.project(d)
    if current is not poly:
        cert_int, cert_gen = level_certificates(current)
    if cert_int.max_level < k - 1:
        raise RuntimeError("dimension reduction lost (k-1)-integrality")
    level = cert_gen.max_level
    if level < k:
        raise RuntimeError("dimension reduction lost k-generality")

    reduced_map = AffineMap.identity(d)
    while level < d:
        directions = []
        for face in current.faces(level + 1):
            _, _, rows, pivots, _ = current.face_flat(face)
            if pivots[:level] != list(range(level)):
                raise RuntimeError("face hull lost general position during reduction")
            directions.append(tuple(rows[level][level:]))
        w = find_generic_integer_vector(directions)
        column = [0] * level + list(w)
        step = [[Fraction(int(i == j)) if j != level else Fraction(column[i])
                 for j in range(d)] for i in range(d)]
        step_map = AffineMap.linear(step)
        steps.append(step_map)
        current = apply_affine(current, step_map)
        reduced_map = reduced_map.then(step_map)
        cert_int, cert_gen = level_certificates(current)
        new_level = cert_gen.max_level
        if new_level <= level:
            raise RuntimeError("generality level did not increase")
        if cert_int.max_level < k - 1:
            raise RuntimeError("a reduction step lost (k-1)-integrality")
        level = new_level

    padded = [
        [reduced_map.matrix[i][j] if i < d and j < d else Fraction(int(i == j))
         for j in range(big)]
        for i in range(big)
    ]
    return phi.then(AffineMap.linear(padded)), current, steps
