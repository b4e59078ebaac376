"""Structured verification outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


def format_rational(x) -> str | int:
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def shown(value: Any) -> str:
    """The repr of a rejected value, cut to 40 characters and its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


@dataclass(frozen=True)
class Report:
    """Outcome of checking one identity: hypothesis status, both sides, and
    their equality, lhs == rhs.  An identity failing under its hypotheses is a
    fault, and raises RuntimeError."""

    identity: str
    hypotheses: tuple[tuple[str, bool], ...]
    lhs: Fraction
    rhs: Fraction
    witness: str | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.hypotheses_hold and not self.equal:
            raise RuntimeError(f"{self.identity} identity failed although its hypotheses hold")

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def hypotheses_hold(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    def as_dict(self) -> dict[str, Any]:
        return {
            "identity": self.identity,
            "hypotheses": [{"condition": name, "holds": ok} for name, ok in self.hypotheses],
            "hypotheses_hold": self.hypotheses_hold,
            "witness": self.witness,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "equal": self.equal,
            **({"details": self.details} if self.details else {}),
        }
