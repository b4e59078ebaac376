"""Seeded corpus generator for the benchmark's four workloads.

Standard library only, and it never calls latticeface: the program under test
receives nothing but the generated documents and command lines.  The seed
picks translations, mirror images, curve-parameter offsets and vertex order.  Every family keeps its size, dimension and combinatorial type, so
the cost of a pass over the corpus stays nearly the same from seed to seed.

Each workload exists to stress one layer (see the docstring of each builder).
Cases measured as too slow for a run of the benchmark (single runs on a 2-core
x86-64 virtual machine, Python 3.11) are left out until the program is faster:

* the random 6-dimensional polytope on 20 points: its hull alone took about
  133 s;
* ``simplex-identities`` at d = 6 took 187 s, and at d = 5 about 9-10 s per
  job, which is more than a whole measured run can spend on one job;
* ``ehrhart --method interpolate`` on a d = 5 moment-curve simplex reached the
  10^7 cell budget after about 22 s;
* the 4-dimensional box family in ``count`` (its 16-vertex hull costs about
  1.8 s per job, so enumeration no longer dominates).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from exact import is_fully_general_simplex, leibniz_det, simplex_volume

WORKLOADS = ("certify", "count", "slices", "identities")


@dataclass
class Shape:
    """A generated polytope document and what is known about it in closed form."""

    name: str
    family: str
    vertices: list[list[int]]
    facts: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def document(self) -> dict:
        return {"ambient_dim": self.dim, "vertices": self.vertices}


@dataclass
class Job:
    """One command line; ``args`` follow the document path."""

    shape: str
    command: str
    args: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join((self.command, self.shape, *self.args))

    def argv(self, workdir: Path) -> list[str]:
        path = str(workdir / f"{self.shape}.json")
        return [self.command, path, *self.args, "--format", "json"]


@dataclass
class Corpus:
    workload: str
    seed: int
    shapes: dict[str, Shape]
    jobs: list[Job]

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for shape in self.shapes.values():
            with open(workdir / f"{shape.name}.json", "w", encoding="utf-8") as fh:
                json.dump(shape.document(), fh)


# -- families ----------------------------------------------------------------


def box(sides) -> list[list[int]]:
    return [list(v) for v in itertools.product(*[(0, a) for a in sides])]


def cross(d: int, s: int) -> list[list[int]]:
    out = []
    for i in range(d):
        for sign in (1, -1):
            v = [0] * d
            v[i] = sign * s
            out.append(v)
    return out


def moment(d: int, ts) -> list[list[int]]:
    return [[t**j for j in range(1, d + 1)] for t in ts]


def product(a, b) -> list[list[int]]:
    return [x + y for x in a for y in b]


def cone(base, apex_height: int) -> list[list[int]]:
    return [v + [0] for v in base] + [[0] * len(base[0]) + [apex_height]]


def standard_simplex(d: int, s: int) -> list[list[int]]:
    return [[0] * d] + [[s if j == i else 0 for j in range(d)] for i in range(d)]


def translate(vertices, shift) -> list[list[int]]:
    return [[x + t for x, t in zip(v, shift)] for v in vertices]


def params(rng: random.Random, gaps, lo: int = -2, hi: int = 0) -> list[int]:
    """Curve parameters with fixed gaps and a random offset.

    Shifting t is a unimodular change of coordinates on the moment curve, so
    every seed gives a lattice-equivalent shape of the same cost.
    """
    start = rng.randint(lo, hi)
    return [start + sum(gaps[:i]) for i in range(len(gaps) + 1)]


def polynomial_values(coeffs, t: int) -> int:
    return sum(c * t**i for i, c in enumerate(coeffs))


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        # Random shapes come from a fixed pool; the seed then mirrors them (see
        # ``mirror``), which keeps their cost the same for every seed.
        self.pool = random.Random(f"{workload}:pool")
        self.shapes: dict[str, Shape] = {}
        self.jobs: list[Job] = []

    def shape(self, family: str, vertices, **facts) -> str:
        name = f"{family}{len(self.shapes):02d}"
        verts = [list(v) for v in vertices]
        self.rng.shuffle(verts)
        self.shapes[name] = Shape(name, family, verts, facts)
        return name

    def job(self, shape: str, command: str, *args) -> None:
        self.jobs.append(Job(shape, command, tuple(str(a) for a in args)))

    def shift(self, d: int, lo: int = -2, hi: int = 2) -> list[int]:
        return [self.rng.randint(lo, hi) for _ in range(d)]

    def mirror(self, vertices) -> list[list[int]]:
        """Negate a seeded subset of the coordinates.  This keeps every
        determinant up to sign, so integrality and generality levels, volumes
        and the cost of the exact arithmetic stay the same."""
        signs = [self.rng.choice((1, -1)) for _ in vertices[0]]
        return [[s * x for s, x in zip(signs, v)] for v in vertices]

    def finish(self, workload: str, seed: int) -> Corpus:
        # Jobs keep one order for every seed: the order in which large and
        # small enumerations follow each other sets the peak memory.
        return Corpus(workload, seed, self.shapes, self.jobs)


def _certify(b: _Builder) -> None:
    """Few, large hulls: d = 4-6 and 9-16 vertices, so ``Polytope()`` (the
    brute-force hull over all d-subsets, run once per construction, projection
    and facet cone) takes nearly all of every job."""
    rng = b.rng
    k_cycle = itertools.cycle((1, 2))

    def certify_all(name: str) -> None:
        b.job(name, "check")
        b.job(name, "volume")
        b.job(name, "svol", "--k", 1)
        b.job(name, "verify-mainvol", "--k", next(k_cycle))

    # The 4-cube and the 6-dimensional cross-polytope are the largest hulls
    # (16 and 12 vertices, 1820 and 924 subsets); they are only certified.
    sides = [1, 1, 2, 3]
    rng.shuffle(sides)
    b.job(b.shape("box", translate(box(sides), b.shift(4)), sides=sides, vertex_count=16), "check")
    b.job(b.shape("cross", translate(cross(6, 1), b.shift(6)), cross=(6, 1), vertex_count=12), "check")
    certify_all(b.shape("cross", translate(cross(5, 2), b.shift(5)), cross=(5, 2), vertex_count=10))
    left, right = moment(2, params(rng, (1, 1))), moment(2, params(rng, (1, 2)))
    volume = simplex_volume(left) * simplex_volume(right) * Fraction(2, 5)
    certify_all(b.shape("cone", cone(product(left, right), 2), volume=volume, vertex_count=10))
    for gaps in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        left = moment(2, params(rng, gaps))
        right = moment(2, params(rng, (1, 1)))
        volume = simplex_volume(left) * simplex_volume(right)
        certify_all(b.shape("prod", product(left, right), volume=volume, vertex_count=9))
    # Random lattice points, some of them not extreme, which the hull must drop.
    certify_all(b.shape("rand", b.mirror(_random_full_dim_points(b.pool, 4, 10, 0, 3))))


def _count(b: _Builder) -> None:
    """Large dilates of small hulls: simplices and boxes in d = 3-4 whose
    dilates hold 10^4 to a few 10^5 lattice points, so ``lattice_points``
    (which materialises every point of m P) dominates time and memory, and
    each job builds at most a handful of hulls of <= 8 vertices.  Boxes and
    standard simplices are only 0-integral, so "auto" runs the k-integral
    method with k = 0, which enumerates every dilate like "interpolate"."""
    rng = b.rng
    methods = (("ehrhart", "--method", "auto"), ("ehrhart", "--method", "interpolate"),
               ("verify-codim1",))
    for sides in ((6, 8, 10), (10, 11, 12), (12, 14, 16), (16, 17, 18)):
        perm = list(sides)
        rng.shuffle(perm)
        name = b.shape("box", box(perm), sides=perm)
        for cmd in methods:
            b.job(name, *cmd)
    for d, s in ((3, 16), (3, 20), (3, 24), (3, 30), (4, 6), (4, 8), (4, 9), (4, 10)):
        name = b.shape("std", standard_simplex(d, s), simplex=(d, s))
        for cmd in methods:
            b.job(name, *cmd)
    # Moment-curve simplices are fully integral: "auto" takes the projection
    # closed form (hulls only), k-integral enumerates fewer dilates.
    for scale, k in ((3, 1), (4, 2), (4, 1)):
        verts = [[scale * x for x in v] for v in moment(3, params(rng, (1, 1, 1)))]
        name = b.shape("mom", verts)
        for cmd in methods:
            b.job(name, *cmd)
        b.job(name, "ehrhart", "--method", "k-integral", "--k", k)


def _slices(b: _Builder) -> None:
    """Many tiny hulls: d = 3-4 polytopes with <= 8 vertices, whose slice
    commands build one hull per hyperplane cut over every projected lattice
    point (tens to hundreds per job) through ``slice_at``.  This is the regime
    opposite to ``certify`` and covers both slice iterators: the library's
    ``slice_volume_sum`` (svol) and the CLI's own loop (slices)."""
    rng = b.rng

    def both(name: str, *levels: int) -> None:
        for k in levels:
            b.job(name, "slices", "--k", k)
            b.job(name, "svol", "--k", k)

    # Sides are not shuffled: the first two set the number of slices.
    for sides in ([4, 5, 6], [6, 6, 6], [5, 4, 3]):
        both(b.shape("box", translate(box(sides), b.shift(3)), sides=sides), 1, 2)
    for s in (3, 4, 5):
        both(b.shape("cross", translate(cross(3, s), b.shift(3)), cross=(3, s)), 1, 2)
    both(b.shape("cross", translate(cross(4, 2), b.shift(4)), cross=(4, 2)), 1, 2)
    for _ in range(2):
        verts = [[3 * x for x in v] for v in moment(3, params(rng, (1, 1, 1)))]
        both(b.shape("mom", verts), 1, 2)
    for height in (4, 8):
        tri = [[2 * x for x in v] for v in moment(2, params(rng, (1, 2)))]
        both(b.shape("prism", translate(product(tri, [[0], [height]]), b.shift(3))), 1, 2)
    verts = moment(4, params(rng, (1, 1, 1, 1), -1, 0))
    both(b.shape("mom", verts), 1, 2)


def _identities(b: _Builder) -> None:
    """Exact linear algebra without enumeration: the signed-decomposition
    sweep takes d! permutations of Fraction determinants (determinant_ratios
    and linalg.det), and reduction runs HNF, saturation and basis extension
    (lattice, linalg.hnf).  Hulls are simplices, so the hull share is small."""
    rng = b.pool
    for d, count in ((3, 14), (4, 14)):
        for _ in range(count):
            while True:
                verts = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d + 1)]
                if is_fully_general_simplex(verts):
                    break
            b.job(b.shape(f"gen{d}_", b.mirror(verts)), "simplex-identities")
    # reduce --k 1: distinct first coordinates (1-general, integral) but three
    # vertices collinear in the first two coordinates, so not 2-general.
    for d in (3, 4, 3, 4, 3, 4, 3, 4):
        while True:
            ts = sorted(rng.sample(range(-3, 4), d + 1))
            slope, icpt = rng.randint(-2, 2), rng.randint(-2, 2)
            verts = []
            for i, t in enumerate(ts):
                second = slope * t + icpt if i < 3 else rng.randint(-4, 4)
                verts.append([t, second] + [rng.randint(-3, 3) for _ in range(d - 2)])
            if _full_dim(verts) and not is_fully_general_simplex(verts):
                break
        b.job(b.shape(f"red{d}_", b.mirror(verts)), "reduce", "--k", 1)
    # reduce --k 2 in d = 4: coordinates are integer polynomials in t, which
    # makes every edge primitive with first coordinate +-1 (1-integral) and the
    # (t, t^2) columns make every triangle general (2-general); the third
    # coordinate puts four vertices on a plane of the first three coordinates.
    for _ in range(6):
        while True:
            ts = sorted(rng.sample(range(-2, 4), 5))
            four = rng.sample(ts, 4)
            a, c = rng.randint(-2, 2), rng.randint(-1, 1) or 1
            cubic = [rng.randint(-2, 2) for _ in range(3)] + [1]
            verts = []
            for t in ts:
                plane = a * t + t * t
                bump = 1
                for r in four:
                    bump *= t - r
                verts.append([t, t * t, plane + c * bump, polynomial_values(cubic, t)])
            if _full_dim(verts) and not is_fully_general_simplex(verts):
                break
        b.job(b.shape("red4_", b.mirror(verts)), "reduce", "--k", 2)


def _full_dim(vertices) -> bool:
    base = vertices[0]
    return leibniz_det([[x - y for x, y in zip(v, base)] for v in vertices[1:]]) != 0


def _random_full_dim_points(rng: random.Random, d: int, n: int, lo: int, hi: int):
    while True:
        pts = {tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(n)}
        if len(pts) < n:
            continue
        pts = [list(p) for p in sorted(pts)]
        if any(_full_dim([pts[i] for i in idx]) for idx in itertools.combinations(range(n), d + 1)):
            return pts


_BUILDERS = {"certify": _certify, "count": _count, "slices": _slices, "identities": _identities}


def generate(workload: str, seed: int) -> Corpus:
    """The corpus for ``workload``; the same seed always gives the same corpus."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    builder = _Builder(workload, seed)
    _BUILDERS[workload](builder)
    return builder.finish(workload, seed)
