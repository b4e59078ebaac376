"""Invariant and argument checks are explicit exceptions, so they survive
``python -O``, and each argument check says what it rejects.  The package
imports nothing it does not use, only polytope.py reads Polytope's private
attributes, and only output code reads its Fraction vertex view."""

import ast
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import latticeface
from latticeface import (
    Polytope,
    Report,
    Sublattice,
    determinant_ratios,
    ehrhart_from_slices,
    find_generic_integer_vector,
    iter_slices,
    lin_lattice,
    normalized_volume,
    power_sum,
    reduce_to_full_general,
    saturate,
    simplex_slice_volume,
    slice_volume_sum,
    verify_codim1_identity,
)
from latticeface.integrality import certify
from latticeface.linalg import int_kernel

PACKAGE = Path(latticeface.__file__).resolve().parent


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # Invariant checks raise RuntimeError: neither an assert statement nor an
    # explicit AssertionError, which callers would take for a failed test.
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert offenders == []


def test_invariant_checks_run_under_python_O():
    script = textwrap.dedent("""
        import sys
        import latticeface.ehrhart as ehrhart
        from latticeface import Polytope, Sublattice, ehrhart_interpolated, extend_basis

        print(sys.flags.optimize)
        print(ehrhart_interpolated(Polytope(2, [(0, 0), (4, 0), (3, 6)])).as_list())
        print(extend_basis(Sublattice.from_rows(3, [[1, 2, 3]]))[0])
        ehrhart.solve = lambda a, b: [0] * len(b)  # a solver that loses the constant term
        try:
            ehrhart_interpolated(Polytope(1, [(0,), (2,)]))
        except RuntimeError as exc:
            print("RuntimeError:", exc)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "1",
        "[1, 4, 12]",
        "[1, 2, 3]",
        "RuntimeError: Ehrhart polynomial of an integral polytope has a constant term other than 1",
    ]


def test_a_report_raises_when_its_identity_fails_under_its_hypotheses():
    sides = {"identity": "demo", "lhs": Fraction(1), "rhs": Fraction(2)}
    with pytest.raises(RuntimeError, match="demo identity failed although its hypotheses hold"):
        Report(hypotheses=(("integral", True), ("1-general position", True)), **sides)
    report = Report(hypotheses=(("integral", True), ("1-general position", False)), **sides)
    assert not report.hypotheses_hold and report.as_dict()["equal"] is False


EMPTY = Polytope(2, [])
SQUARE = Polytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = Polytope(2, [(0, 0), (1, 0), (0, 1)])
SIMPLEX_8 = Polytope(8, [[0] * 8] + [[int(i == j) for j in range(8)] for i in range(8)])

# (call, the message of the ValueError it raises)
ARGUMENT_CHECKS = [
    (lambda: EMPTY.faces(0), "empty polytope has no faces"),
    (lambda: SQUARE.faces(3), "face dimension must lie in [0, 2], got 3"),
    (lambda: SQUARE.project(3), "projection target must lie in [0, 2], got 3"),
    (lambda: SQUARE.slice_at((0, 0, 0)), "slice point has more coordinates than the ambient space"),
    (lambda: lin_lattice(EMPTY), "empty polytope has no affine hull"),
    (lambda: normalized_volume(SQUARE, Sublattice.standard(3)), "ambient dimensions differ"),
    (lambda: normalized_volume(SQUARE, Sublattice.from_rows(2, [[1, 0]])),
     "lattice does not span lin(P): rank too small"),
    (lambda: next(iter_slices(SQUARE, 3)), "k must lie in [0, 2], got 3"),
    (lambda: ehrhart_from_slices(EMPTY, 0), "empty polytope has no Ehrhart polynomial"),
    (lambda: ehrhart_from_slices(SQUARE, 3), "k must lie in [0, 2], got 3"),
    (lambda: verify_codim1_identity(Polytope(2, [(1, 1)])), "identity requires a polytope of dimension >= 1"),
    (lambda: find_generic_integer_vector([]), "at least one vector is required"),
    (lambda: find_generic_integer_vector([(1, 2), (1,)]), "vectors must share a common dimension"),
    (lambda: reduce_to_full_general(EMPTY, 1), "reduction requires a polytope of dimension >= 1"),
    (lambda: reduce_to_full_general(SQUARE, 3), "k must lie in [1, 2], got 3"),
    (lambda: power_sum(-1, 2), "power sum index must be nonnegative"),
    (lambda: determinant_ratios(TRIANGLE.vertices, (0, 0)), "perm must be a permutation of 0..d-1"),
    (lambda: simplex_slice_volume(EMPTY), "empty polytope"),
    (lambda: simplex_slice_volume(Polytope(2, [(0, 0), (1, 2)])),
     "simplex must be full-dimensional in its ambient space"),
    (lambda: simplex_slice_volume(Polytope(0, [()])), "dimension must be at least 1"),
    (lambda: simplex_slice_volume(SIMPLEX_8), "permutation enumeration is capped at dimension 7"),
    (lambda: Sublattice.from_rows(2, [[1]]), "generator length does not match ambient dimension"),
    (lambda: Sublattice.from_rows(2, [[Fraction(1, 2), 0]]), "sublattice generators must be integer vectors"),
    (lambda: saturate([]), "ambient_dim required for an empty span"),
    (lambda: int_kernel([]), "ncols required for an empty constraint matrix"),
    (lambda: certify(EMPTY), "empty polytope has no level certificate"),
]


def test_every_argument_check_names_what_it_rejects():
    for call, message in ARGUMENT_CHECKS:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message
    # The empty polytope and the empty span are values, not errors.
    assert normalized_volume(EMPTY, Sublattice.standard(2)) == 0
    assert slice_volume_sum(EMPTY, 0) == 0
    assert saturate([], ambient_dim=2) == Sublattice(2, ())


def _bound_names(node) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_no_module_imports_a_name_it_never_uses():
    # The package declares no linter, so this is its unused-import check.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno}: {name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for name in _bound_names(node) if name not in used]
    assert unused == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # An underscore name belongs to its module: what a sibling needs of it is
    # public, so each decision has one owner.
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        private += [f"{path.name}:{node.lineno}: {alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").partition(".")[0] == PACKAGE.name)
                    for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_module_reads_a_private_attribute_of_another_object():
    # Polytope's internals, its vertex layout among them, belong to
    # polytope.py: every other module reads only public names, so each layout
    # has one owner.  Dunder names and reads on self or cls are not private reads.
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "polytope.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        private += [f"{path.name}:{node.lineno}: {node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr.startswith("_") and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    assert private == []


# The functions that print P's vertices as rationals: documents, witness text
# and the test oracle's Fraction map.  Everything else reads integer_vertices.
_VERTEX_VIEW_READERS = {
    "document.polytope_to_document",
    "polytope.Polytope.face_vertices",
    "integrality._level_scan",
    "reduction.apply_affine",
}


def _attribute_reads(node, scope: str, attr: str):
    """(qualified name of the enclosing definition, line) of each ``.attr`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _attribute_reads(child, f"{scope}.{child.name}", attr)
            continue
        if isinstance(child, ast.Attribute) and child.attr == attr:
            yield scope, child.lineno
        yield from _attribute_reads(child, scope, attr)


def test_only_output_code_reads_the_fraction_vertex_view():
    # Polytope.vertices is a Fraction view of integer_vertices, built on first
    # read: the library computes on the integer rows and builds it only to print.
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers += [f"{path.name}:{line}" for scope, line in _attribute_reads(tree, path.stem, "vertices")
                    if scope not in _VERTEX_VIEW_READERS]
    assert readers == []
