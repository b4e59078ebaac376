"""Command-line front end: it parses, calls the library and formats.  Each
command is one row of ``build_parser``'s table, whose subparser carries its handler.

Exit codes: 0 on success; 2 when P fails a level hypothesis, whose
``integrality.certify`` text goes to stderr or, for ``verify-mainvol`` and
``verify-codim1``, into the report as its ``witness``; 1 for input or usage
errors.  Output is text, or JSON with ``--format json``; rationals print as p/q.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .document import load_polytope, polytope_to_document, save_polytope
from .ehrhart import (
    EHRHART_METHODS,
    EhrhartPolynomial,
    ehrhart_polynomial,
    iter_slice_polynomials,
    verify_codim1_identity,
)
from .integrality import HypothesisError, level_certificates
from .polytope import BudgetExceeded, Polytope
from .reduction import reduce_to_full_general
from .report import Report, format_rational
from .simplex_decomposition import verify_simplex_identities
from .volume import (
    lin_lattice,
    normalized_volume,
    slice_volume_sum,
    verify_volume_slice_identity,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_HYPOTHESIS = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="latticeface",
        description="Exact integrality certificates, slice volumes, and Ehrhart polynomials "
        "for lattice polytopes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="polytope document (JSON)")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    level = argparse.ArgumentParser(add_help=False, parents=[common])
    level.add_argument("--k", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parent, text, handler in (
        ("check", common, "integrality and generality levels", _cmd_check),
        ("volume", common, "normalized volume", _cmd_volume),
        ("svol", level, "slice-volume sum at level k", _cmd_svol),
        ("verify-mainvol", level, "check volume = slice-volume sum at level k", _cmd_verify_mainvol),
        ("ehrhart", common, "Ehrhart polynomial", _cmd_ehrhart),
        ("slices", level, "per-lattice-point slice volumes and Ehrhart polynomials", _cmd_slices),
        ("simplex-identities", common,
         "signed decomposition identities and the vanishing-sum sweep", _cmd_simplex_identities),
        ("verify-codim1", common, "check i(P) = i(projection) + Vol(P)", _cmd_verify_codim1),
        ("reduce", level, "map to a full-dimensional fully general polytope", _cmd_reduce),
    ):
        sub.add_parser(name, parents=[parent], help=text).set_defaults(handler=handler)
    p = sub.choices["ehrhart"]
    p.add_argument("--method", choices=EHRHART_METHODS, default="auto")
    p.add_argument("--k", type=int, default=None, help="level for --method k-integral")
    p.set_defaults(usage_error=p.error)
    sub.choices["reduce"].add_argument("--out", default=None, help="write the image polytope document here")
    return parser


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2)
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, val in value.items():
                emit(f"{prefix}.{key}" if prefix else str(key), val)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                parts = " ".join(f"{k}={_scalar(v)}" for k, v in item.items())
                lines.append(f"{prefix}[{i}]: {parts}")
        else:
            lines.append(f"{prefix}: {_scalar(value)}")

    for key, val in payload.items():
        emit(str(key), val)
    return "\n".join(lines)


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    if value is None:
        return "none"
    return str(value)


def _cmd_check(poly: Polytope, args) -> tuple[dict, int]:
    cert_i, cert_g = level_certificates(poly)
    return {
        "command": "check",
        "ambient_dim": poly.ambient_dim,
        "dim": poly.dim,
        "vertex_count": len(poly.integer_vertices[1]),
        "integrality_level": cert_i.max_level,
        "integrality_witness": cert_i.describe_witness(),
        "generality_level": cert_g.max_level,
        "generality_witness": cert_g.describe_witness(),
    }, EXIT_OK


def _cmd_volume(poly: Polytope, args) -> tuple[dict, int]:
    vol = normalized_volume(poly, lin_lattice(poly))
    return {"command": "volume", "lattice": "lin", "volume": format_rational(vol)}, EXIT_OK


def _cmd_svol(poly: Polytope, args) -> tuple[dict, int]:
    value = slice_volume_sum(poly, args.k)
    return {"command": "svol", "k": args.k, "svol": format_rational(value)}, EXIT_OK


def _identity_payload(report: Report, **head) -> tuple[dict, int]:
    """The report after ``head``, exiting 2 when its hypotheses fail."""
    return {**head, **report.as_dict()}, EXIT_OK if report.hypotheses_hold else EXIT_HYPOTHESIS


def _cmd_verify_mainvol(poly: Polytope, args) -> tuple[dict, int]:
    report = verify_volume_slice_identity(poly, args.k)
    return _identity_payload(report, command="verify-mainvol", k=args.k)


def _cmd_ehrhart(poly: Polytope, args) -> tuple[dict, int]:
    method, k, result = ehrhart_polynomial(poly, args.method, args.k)
    payload = {"command": "ehrhart", "method": method,
               "coefficients": result.as_list(), "polynomial": str(result)}
    if k is not None:
        payload["k"] = k
    return payload, EXIT_OK


def _cmd_slices(poly: Polytope, args) -> tuple[dict, int]:
    entries, polys, total = [], [], Fraction(0)
    for s, slice_poly in iter_slice_polynomials(poly, args.k):
        total += s.volume
        polys.append(slice_poly)
        entries.append({
            "point": list(s.point),
            "position": s.position,
            "volume": format_rational(s.volume),
            "ehrhart": None if slice_poly is None else slice_poly.as_list(),
        })
    payload = {
        "command": "slices",
        "k": args.k,
        "slices": entries,
        "volume_sum": format_rational(total),
        "ehrhart_sum": None if None in polys else sum(polys, EhrhartPolynomial((0,))).as_list(),
    }
    return payload, EXIT_OK


def _cmd_simplex_identities(poly: Polytope, args) -> tuple[dict, int]:
    signed, sweep = verify_simplex_identities(poly)
    entries = [
        {**rep.details, "sum": format_rational(rep.lhs), "holds": rep.equal} for rep in sweep
    ]
    payload = {
        "command": "simplex-identities",
        "signed_decomposition": signed.as_dict(),
        "vanishing_sums": entries,
        "all_hold": signed.equal and all(rep.equal for rep in sweep),
    }
    return payload, EXIT_OK


def _cmd_verify_codim1(poly: Polytope, args) -> tuple[dict, int]:
    return _identity_payload(verify_codim1_identity(poly), command="verify-codim1")


def _cmd_reduce(poly: Polytope, args) -> tuple[dict, int]:
    phi, image = reduce_to_full_general(poly, args.k)
    doc = polytope_to_document(image)
    if args.out:
        save_polytope(image, args.out)
    payload = {
        "command": "reduce",
        "k": args.k,
        "map": {
            "matrix": [[format_rational(x) for x in row] for row in phi.matrix],
            "offset": [format_rational(x) for x in phi.offset],
        },
        "polytope": doc,
    }
    return payload, EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:  # argparse exits 2, the hypothesis code, on a usage error, and 0 after --help
        args = parser.parse_args(argv)
        if args.command == "ehrhart" and args.k is not None and args.method != "k-integral":
            args.usage_error(f"--k applies only to --method k-integral, not --method {args.method}")
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        poly = load_polytope(args.file)
        payload, code = args.handler(poly, args)
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(_render(payload, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
