"""Invariant checks are explicit exceptions, so they survive ``python -O``."""

import ast
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import latticeface
from latticeface import Report

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
