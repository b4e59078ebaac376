"""Output oracles for the benchmark's jobs.

An oracle never calls latticeface.  It checks a job's printed result against
a closed form computed in ``exact`` or against another command's result on the
same document.  The checks run after the timed region; a job whose result
fails one counts as failed.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Optional

from corpus import Job, Shape
from exact import (
    box_ehrhart,
    box_slice_sum,
    cross_slice_sum,
    cross_volume,
    generality_level_of_simplex,
    parse_rational as q,
    poly_value,
    signed_simplex_det,
    simplex_count,
    simplex_volume,
)

# Exit codes of the program: 0 success, 2 an identity's hypotheses fail.
OK, HYPOTHESIS = 0, 2
_REPORT_COMMANDS = ("verify-mainvol", "verify-codim1")

Result = tuple[int, Optional[dict]]
Sibling = Callable[..., Optional[Result]]


class OracleError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def check(job: Job, shape: Shape, result: Result, sibling: Sibling) -> Optional[str]:
    """None when the job's result is correct, else the reason it is not.

    ``sibling(command, *args)`` returns another job's result on the same shape,
    or None when the corpus has no such job or that job printed no result.
    """
    code, payload = result
    allowed = (OK, HYPOTHESIS) if job.command in _REPORT_COMMANDS else (OK,)
    if code not in allowed:
        return f"exit code {code}"
    if payload is None:
        return "no JSON result on stdout"
    try:
        _CHECKS[job.command](job, shape, code, payload, sibling)
    except OracleError as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed result: {exc!r}"
    return None


def _k(job: Job) -> int:
    return int(job.args[job.args.index("--k") + 1])


def _levels(sibling: Sibling) -> Optional[tuple[int, int]]:
    found = sibling("check")
    if found is None:
        return None
    return found[1]["integrality_level"], found[1]["generality_level"]


def _known_volume(shape: Shape) -> Optional[Fraction]:
    facts = shape.facts
    if "sides" in facts:
        vol = Fraction(1)
        for a in facts["sides"]:
            vol *= a
        return vol
    if "cross" in facts:
        return cross_volume(*facts["cross"])
    if "volume" in facts:
        return facts["volume"]
    return None


def _known_slice_sum(shape: Shape, k: int) -> Optional[Fraction]:
    if "sides" in shape.facts:
        return box_slice_sum(shape.facts["sides"], k)
    if "cross" in shape.facts:
        d, s = shape.facts["cross"]
        return cross_slice_sum(d, s, k)
    return None


def _known_ehrhart_values(shape: Shape) -> Optional[list[Fraction]]:
    """L(0..d) from a closed form, which fixes a degree-d polynomial."""
    d = shape.dim
    if "sides" in shape.facts:
        coeffs = box_ehrhart(shape.facts["sides"])
        return [poly_value(coeffs, m) for m in range(d + 1)]
    if "simplex" in shape.facts:
        dd, s = shape.facts["simplex"]
        return [Fraction(simplex_count(dd, s, m)) for m in range(d + 1)]
    return None


def _check_check(job, shape, code, payload, sibling) -> None:
    d = shape.dim
    _require(payload["dim"] == d and payload["ambient_dim"] == d, "wrong dimension")
    if "vertex_count" in shape.facts:
        _require(payload["vertex_count"] == shape.facts["vertex_count"], "wrong vertex count")
    lev_i, lev_g = payload["integrality_level"], payload["generality_level"]
    _require(-1 <= lev_i <= d and -1 <= lev_g <= d, "level out of range")
    # An affinely integral face hull surjects onto the leading coordinates.
    _require(lev_i <= lev_g, "integrality level above generality level")


def _check_volume(job, shape, code, payload, sibling) -> None:
    vol = q(payload["volume"])
    known = _known_volume(shape)
    if known is not None:
        _require(vol == known, f"volume {vol} != closed form {known}")
    _require(vol > 0, "full-dimensional polytope with zero volume")


def _check_svol(job, shape, code, payload, sibling) -> None:
    k = _k(job)
    value = q(payload["svol"])
    known = _known_slice_sum(shape, k)
    if known is not None:
        _require(value == known, f"svol {value} != closed form {known}")
    levels = _levels(sibling)
    volume = sibling("volume")
    if levels and volume and levels[0] >= k - 1 and levels[1] >= k:
        _require(value == q(volume[1]["volume"]), "svol differs from volume under the hypotheses")


def _check_verify_mainvol(job, shape, code, payload, sibling) -> None:
    k = _k(job)
    levels = _levels(sibling)
    if levels is not None:
        holds = levels[0] >= k - 1 and levels[1] >= k
        _require((code == OK) == holds, "exit code disagrees with check's levels")
    _require(payload["hypotheses_hold"] == (code == OK), "exit code disagrees with the report")
    lhs, rhs = q(payload["lhs"]), q(payload["rhs"])
    if code == OK:
        _require(lhs == rhs, "identity fails although its hypotheses hold")
    volume = sibling("volume")
    if volume is not None:
        _require(lhs == q(volume[1]["volume"]), "lhs differs from volume")
    known = _known_volume(shape)
    if known is not None:
        _require(lhs == known, "lhs differs from the closed-form volume")


def _check_ehrhart(job, shape, code, payload, sibling) -> None:
    coeffs = [q(c) for c in payload["coefficients"]]
    d = shape.dim
    _require(len(coeffs) == d + 1, "wrong degree")
    _require(coeffs[0] == 1, "an integral polytope counts 1 point at m = 0")
    known = _known_ehrhart_values(shape)
    if known is not None:
        got = [poly_value(coeffs, m) for m in range(d + 1)]
        _require(got == known, f"L(0..{d}) = {got} != closed form {known}")
    method = job.args[job.args.index("--method") + 1]
    if method != "interpolate":
        ref = sibling("ehrhart", "--method", "interpolate")
        if ref is not None:
            _require(
                coeffs == [q(c) for c in ref[1]["coefficients"]],
                f"{method} disagrees with interpolate",
            )
    if method == "k-integral":
        _require(payload.get("k") == _k(job), "k-integral used another k")


def _check_verify_codim1(job, shape, code, payload, sibling) -> None:
    _require(payload["hypotheses_hold"] == (code == OK), "exit code disagrees with the report")
    lhs, rhs = q(payload["lhs"]), q(payload["rhs"])
    if code == OK:
        _require(lhs == rhs, "identity fails although its hypotheses hold")
    known = _known_ehrhart_values(shape)
    if known is not None:
        _require(lhs == known[1], f"lhs {lhs} != closed-form count {known[1]}")
    ref = sibling("ehrhart", "--method", "interpolate")
    if ref is not None:
        _require(lhs == poly_value([q(c) for c in ref[1]["coefficients"]], 1), "lhs != L(1)")


def _check_slices(job, shape, code, payload, sibling) -> None:
    k = _k(job)
    total = q(payload["volume_sum"])
    _require(total == sum(q(e["volume"]) for e in payload["slices"]), "volume_sum != sum of slices")
    svol = sibling("svol", "--k", k)
    if svol is not None:
        _require(total == q(svol[1]["svol"]), "slices volume_sum differs from svol")
    known = _known_slice_sum(shape, k)
    if known is not None:
        _require(total == known, f"volume_sum {total} != closed form {known}")
    if "sides" in shape.facts:
        expected = 1
        for a in shape.facts["sides"][:k]:
            expected *= a + 1
        _require(len(payload["slices"]) == expected, "wrong number of slices")


def _vanishing_sweep_size(d: int) -> int:
    """Entries of the CLI's sweep: arity + excess <= d - 2, exponents in {0,1,2}^arity
    with total degree <= 2."""
    count = 0
    for arity in range(max(d - 1, 0)):
        monomials = sum(1 for i in range(arity) for j in range(i, arity)) + arity + 1
        count += (d - 1 - arity) * monomials
    return count


def _check_simplex_identities(job, shape, code, payload, sibling) -> None:
    d = shape.dim
    expected = signed_simplex_det(shape.vertices) / factorial(d)
    report = payload["signed_decomposition"]
    _require(q(report["rhs"]) == expected, f"rhs {report['rhs']} != det/d! = {expected}")
    _require(q(report["lhs"]) == expected, "signed staircase sum != det/d!")
    ratio = report["details"]["determinant_ratio_sum"]
    _require(q(ratio) == expected, "determinant ratio sum != det/d!")
    sweep = payload["vanishing_sums"]
    _require(len(sweep) == _vanishing_sweep_size(d), "wrong number of vanishing sums")
    _require(all(q(e["sum"]) == 0 and e["holds"] for e in sweep), "a vanishing sum is nonzero")
    _require(payload["all_hold"] is True, "all_hold is false")


def _check_reduce(job, shape, code, payload, sibling) -> None:
    d = shape.dim
    image = payload["polytope"]
    _require(image["ambient_dim"] == d, "image has the wrong dimension")
    image_verts = [[q(x) for x in v] for v in image["vertices"]]
    _require(len(image_verts) == d + 1, "image of a simplex is not a simplex")
    _require(simplex_volume(image_verts) == simplex_volume(shape.vertices), "volume not kept")
    _require(generality_level_of_simplex(image_verts) == d, "image is not fully general")
    matrix = [[q(x) for x in row] for row in payload["map"]["matrix"]]
    offset = [q(x) for x in payload["map"]["offset"]]
    # The map acts on row vectors: x -> offset + x @ matrix.
    mapped = {
        tuple(sum(x * row[j] for x, row in zip(v, matrix)) + o for j, o in enumerate(offset))
        for v in shape.vertices
    }
    _require(mapped == {tuple(v) for v in image_verts}, "the map does not carry P onto the image")


_CHECKS = {
    "check": _check_check,
    "volume": _check_volume,
    "svol": _check_svol,
    "verify-mainvol": _check_verify_mainvol,
    "ehrhart": _check_ehrhart,
    "verify-codim1": _check_verify_codim1,
    "slices": _check_slices,
    "simplex-identities": _check_simplex_identities,
    "reduce": _check_reduce,
}
