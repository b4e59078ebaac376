"""In-memory spans around latticeface's public functions, and the per-layer
metrics computed from them.

The tracer wraps from outside the package and changes nothing under ``src/``:
methods are replaced on the ``Polytope`` class, and each module function is
rebound in every ``latticeface.*`` namespace that holds the same function
object.  Rebinding only the defining module would miss most calls, because the
modules import each other's functions by name (``from .linalg import rank``).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the root of a job
    job: int
    start: float
    end: float = 0.0
    sizes: dict = field(default_factory=dict)


# -- what is wrapped ----------------------------------------------------------


def _polytope_sizes(args, kwargs, result) -> dict:
    # Every constructor call in the package passes (ambient_dim, sequence).
    poly = args[0]
    return {
        "points_in": len(args[2]),
        "vertices_out": len(poly.vertices),
        "facets_out": len(poly.hrep.inequalities),
    }


def _count_of(key: str) -> Callable:
    return lambda args, kwargs, result: {key: len(result)}


def _slice_sizes(args, kwargs, result) -> dict:
    return {"nonempty": int(not result.is_empty)}


def _triangulate_sizes(args, kwargs, result) -> dict:
    return {"cells_out": len(result.simplices)}


# (module, attribute, sizes).  An attribute "Polytope.x" is a method.
WRAPPED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("document", "load_polytope", None),
    ("polytope", "Polytope.__init__", _polytope_sizes),
    ("polytope", "Polytope.faces", _count_of("faces_out")),
    ("polytope", "Polytope.project", None),
    ("polytope", "Polytope.slice_at", _slice_sizes),
    ("polytope", "Polytope.lattice_points", _count_of("points_out")),
    ("integrality", "integrality_level", None),
    ("integrality", "generality_level", None),
    ("integrality", "affine_is_integral", None),
    ("integrality", "subspace_in_general_position", None),
    ("volume", "triangulate", _triangulate_sizes),
    ("volume", "normalized_volume", None),
    ("volume", "slice_volume_sum", None),
    ("volume", "center_at_lattice_point", None),
    ("ehrhart", "ehrhart_interpolated", None),
    ("ehrhart", "ehrhart_from_slices", None),
    ("ehrhart", "ehrhart_from_projections", None),
    ("ehrhart", "verify_codim1_identity", None),
    ("simplex_decomposition", "determinant_ratios", None),
    ("simplex_decomposition", "verify_signed_decomposition", None),
    ("simplex_decomposition", "verify_vanishing_sum", None),
    ("reduction", "reduce_to_full_general", None),
    ("reduction", "find_generic_integer_vector", None),
    ("lattice", "saturate", None),
    ("lattice", "split", None),
    ("lattice", "extend_basis", None),
    ("linalg", "det", None),
    ("linalg", "rank", None),
    ("linalg", "rref", None),
    ("linalg", "solve", None),
    ("linalg", "hnf", None),
    ("linalg", "integer_solution", None),
)


def span_name(module: str, attribute: str) -> str:
    """``polytope.Polytope`` for the constructor, ``polytope.faces`` for a method."""
    if attribute == "Polytope.__init__":
        return f"{module}.Polytope"
    return f"{module}.{attribute.split('.')[-1]}"


# The per-layer metrics reported by a traced run, by span name.
LAYER_STATS: dict[str, tuple[str, ...]] = {
    "cli.main": ("calls", "self_s", "total_s"),
    "document.load_polytope": ("self_s",),
    "polytope.Polytope": (
        "calls", "self_s", "total_s", "job_share",
        "points_in", "vertices_out", "facets_out", "extreme_ratio",
    ),
    "polytope.faces": ("calls", "self_s", "faces_out"),
    "polytope.project": ("calls", "self_s"),
    "polytope.slice_at": ("calls", "self_s", "nonempty_ratio"),
    "polytope.lattice_points": ("calls", "self_s", "total_s", "job_share", "points_out"),
    "integrality.integrality_level": ("calls", "self_s"),
    "integrality.generality_level": ("calls", "self_s"),
    "integrality.affine_is_integral": ("calls",),
    "integrality.subspace_in_general_position": ("calls",),
    "volume.triangulate": ("calls", "self_s", "cells_out"),
    "volume.normalized_volume": ("calls", "self_s"),
    "volume.slice_volume_sum": ("calls", "self_s"),
    "volume.center_at_lattice_point": ("calls",),
    "ehrhart.ehrhart_interpolated": ("calls", "self_s"),
    "ehrhart.ehrhart_from_slices": ("calls", "self_s"),
    "ehrhart.ehrhart_from_projections": ("calls", "self_s"),
    "ehrhart.verify_codim1_identity": ("calls", "self_s"),
    "simplex_decomposition.determinant_ratios": ("calls", "self_s"),
    "simplex_decomposition.verify_signed_decomposition": ("calls", "self_s"),
    "simplex_decomposition.verify_vanishing_sum": ("calls", "self_s"),
    "reduction.reduce_to_full_general": ("calls", "self_s"),
    "reduction.find_generic_integer_vector": ("calls",),
    "lattice.saturate": ("calls", "self_s"),
    "lattice.split": ("calls", "self_s"),
    "lattice.extend_basis": ("calls",),
    "linalg.det": ("calls", "self_s"),
    "linalg.rank": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s"),
    "linalg.solve": ("calls", "self_s"),
    "linalg.hnf": ("calls", "self_s"),
    "linalg.integer_solution": ("calls",),
}
MODULES = tuple(dict.fromkeys(module for module, _, _ in WRAPPED))


def layer_metric_names() -> list[str]:
    names = [f"{layer}.{stat}" for layer, stats in LAYER_STATS.items() for stat in stats]
    names += [f"{module}.self_share" for module in MODULES]
    return names


# -- recording ----------------------------------------------------------------


class Tracer:
    """Records one span per call of a wrapped function, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, sizes: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.job, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if sizes is not None:
                span.sizes = sizes(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "latticeface") -> None:
        """Wrap every entry of WRAPPED in the imported ``package``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attribute, sizes in WRAPPED:
            module = sys.modules[f"{package}.{module_name}"]
            name = span_name(module_name, attribute)
            if "." in attribute:
                cls_name, meth = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, original, sizes))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original, sizes)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def take(self) -> list[Span]:
        """The spans recorded so far; recording starts afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# -- analysis -----------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _outermost_total(spans: list[Span], name: str) -> float:
    """Time inside spans called ``name``, not counting nested ones twice."""
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """Every metric in ``layer_metric_names()`` for one set of spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sizes: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        for key, value in span.sizes.items():
            sizes[span.name][key] += value
    job_time = _outermost_total(spans, "cli.main")
    out: dict[str, float] = {}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            if stat == "calls":
                value = calls[layer]
            elif stat == "self_s":
                value = self_s[layer]
            elif stat == "total_s":
                value = _outermost_total(spans, layer)
            elif stat == "job_share":
                value = _outermost_total(spans, layer) / job_time if job_time else 0.0
            elif stat == "extreme_ratio":
                pts = sizes[layer]["points_in"]
                value = sizes[layer]["vertices_out"] / pts if pts else 0.0
            elif stat == "nonempty_ratio":
                value = sizes[layer]["nonempty"] / calls[layer] if calls[layer] else 0.0
            else:
                value = sizes[layer][stat]
            out[f"{layer}.{stat}"] = value
    for module in MODULES:
        own = sum(v for name, v in self_s.items() if name.split(".")[0] == module)
        out[f"{module}.self_share"] = own / job_time if job_time else 0.0
    return out


def count_signature(spans: list[Span]) -> dict[str, int]:
    """Calls and size counts per span name: these must repeat exactly."""
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[f"{span.name}.calls"] += 1
        for key, value in span.sizes.items():
            out[f"{span.name}.{key}"] += value
    return dict(sorted(out.items()))


SPAN_FIELDS = ("pass", "id", "parent", "job", "name", "start", "end", "sizes")


def write_spans(span_sets: list[list[Span]], path) -> None:
    """One JSON array per span, fields as in the first line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(SPAN_FIELDS) + "\n")
        for pass_index, spans in enumerate(span_sets):
            for i, s in enumerate(spans):
                row = [pass_index, i, s.parent, s.job, s.name, s.start, s.end, s.sizes]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
