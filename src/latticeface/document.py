"""The polytope file format: JSON with exact coordinates.

A document is an object with ``ambient_dim`` and ``vertices``; every
coordinate is either a JSON integer or a string matching
``[+-]?digits(/digits)?`` with a nonzero denominator.
Floats are rejected outright so no precision can be lost on the way in.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .polytope import Polytope
from .report import format_rational

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _shown(value: Any) -> str:
    """The repr of a rejected value, cut to 40 characters and its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def parse_coordinate(value: Any) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"floating-point coordinate {_shown(value)} rejected; write it as 'p/q'")
    if not isinstance(value, str):
        raise ValueError(f"invalid coordinate {_shown(value)}")
    if _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, or too many digits
            raise ValueError(f"invalid rational literal {_shown(value)}") from exc
    raise ValueError(f"invalid rational literal {_shown(value)}")


def polytope_from_document(data: Any) -> Polytope:
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    try:
        ambient_dim = data["ambient_dim"]
        vertices = data["vertices"]
    except KeyError as exc:
        raise ValueError(f"document is missing the {exc.args[0]!r} field") from exc
    if not isinstance(ambient_dim, int) or isinstance(ambient_dim, bool) or ambient_dim < 0:
        raise ValueError("ambient_dim must be a nonnegative integer")
    if not isinstance(vertices, list) or not vertices:
        raise ValueError("vertices must be a non-empty list of coordinate arrays")
    parsed = []
    for row in vertices:
        if not isinstance(row, list) or len(row) != ambient_dim:
            raise ValueError("every vertex must be an array of length ambient_dim")
        parsed.append(tuple(parse_coordinate(x) for x in row))
    return Polytope(ambient_dim, parsed)


def polytope_to_document(poly: Polytope) -> dict:
    return {
        "ambient_dim": poly.ambient_dim,
        "vertices": [[format_rational(x) for x in v] for v in poly.vertices],
    }


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object that names each key once; a repeated key would
    otherwise silently take its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {_shown(key)}")
        data[key] = value
    return data


def load_polytope(path: str) -> Polytope:
    """The polytope of the document at ``path``; a rejection names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        return polytope_from_document(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: document is nested too deeply") from exc
    except ValueError as exc:  # a repeated key, an integer over Python's digit limit or bad content
        raise ValueError(f"{path}: {exc}") from exc


def save_polytope(poly: Polytope, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polytope_to_document(poly), fh, indent=2)
        fh.write("\n")
