"""Command line interface.

Reads a map or element file (JSON, schema in formats.py) and emits one
JSON document on stdout. Exit codes: 0 success, 2 input or validation
error (including finite input too large to compute with), 3 negative
verdict under --assert, 4 conflicting internal checks.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import formats
from .errors import ChoiFactorError, InternalDisagreement, NotPositive
from .maps import adjoint_map, check_cp, choi, dual_choi, kraus_decompose
from .positivity import check_positive
from .projection_algebra import spectral_decompose


def _cmd_choi(args) -> tuple[dict, bool]:
    phi, _ = formats.load_map_file(args.file)
    return {"command": "choi", "n": phi.n, "matrix": formats.matrix_doc(choi(phi))}, True


def _cmd_dphi(args) -> tuple[dict, bool]:
    phi, rep = formats.load_map_file(args.file)
    doc = {
        "command": "dphi",
        "n": phi.n,
        "state": formats.state_doc(rep),
        "matrix": formats.matrix_doc(dual_choi(phi, rep)),
    }
    return doc, True


def _cmd_adjoint(args) -> tuple[dict, bool]:
    phi, rep = formats.load_map_file(args.file)
    return formats.map_doc(adjoint_map(phi), rep), True


def _cmd_cp(args) -> tuple[dict, bool]:
    phi, rep = formats.load_map_file(args.file)
    report = check_cp(phi, tol=args.tol, rep=rep)
    doc = {
        "command": "cp",
        "cp": report.cp,
        "checks": {
            "amplification_positive": report.amplification_positive,
            "extension_positive": report.extension_positive,
            "kraus_exists": report.kraus_exists,
            "dual_choi_psd": report.dual_choi_psd,
            "choi_psd": report.choi_psd,
        },
        "min_eig_dual_choi": report.min_eig_dual_choi,
        "min_eig_choi": report.min_eig_choi,
        "tol": report.tol,
    }
    return doc, report.cp


def _cmd_kraus(args) -> tuple[dict, bool]:
    phi, rep = formats.load_map_file(args.file)
    try:
        kd = kraus_decompose(phi, rep, tol=args.tol)
    except NotPositive as exc:
        found = {"positive": False, "min_eigenvalue": exc.min_eigenvalue,
                 "hermiticity_defect": exc.hermiticity_defect}
    else:
        found = {"positive": True, "count": len(kd),
                 "coefficients": [float(c) for c in kd.coefficients],
                 "ops": formats.matrix_doc(kd.ops)}
    return {"command": "kraus", **found, "tol": args.tol}, found["positive"]


def _cmd_positive(args) -> tuple[dict, bool]:
    phi, rep = formats.load_map_file(args.file)
    cert = check_positive(
        phi,
        rep,
        restarts=args.restarts,
        iters=args.iters,
        tol=args.tol,
        seed=args.seed,
        oracle=args.oracle,
        resolution=args.resolution,
    )
    doc = {
        "command": "positive",
        "verdict": cert.verdict,
        "value": cert.value,
        "witness_u": formats.vector_doc(cert.witness_u),
        "witness_v": formats.vector_doc(cert.witness_v),
        "method": cert.method,
        "seed": cert.seed,
        "restarts": args.restarts,
        "iters": args.iters,
        "tol": args.tol,
    }
    if cert.method == "direct":
        doc["pairing_imag"] = cert.pairing_imag
    if args.oracle:
        doc["resolution"] = args.resolution
    return doc, cert.verdict == "positive"


def _cmd_spectral(args) -> tuple[dict, bool]:
    element = formats.load_element_file(args.file)
    sd = spectral_decompose(element, tol=args.tol)
    doc = {
        "command": "spectral",
        "count": len(sd),
        "items": [
            {"coefficient": float(c), "implementer": formats.matrix_doc(s)}
            for c, s in sd.items
        ],
        "tol": args.tol,
    }
    return doc, True


def _at_least(kind, low):
    # argparse type: a finite int or float >= low, else a usage error with exit 2
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not low <= value < float("inf"):  # a NaN is refused too
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choifactor",
        description="Choi-type operators, Kraus extraction and positivity "
        "certificates for pair-sum maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, verdict=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input JSON file")
        p.add_argument("--pretty", action="store_true", help="indent the output")
        if verdict:
            p.add_argument(
                "--assert",
                dest="assert_",
                action="store_true",
                help="exit 3 on a negative verdict",
            )
        p.set_defaults(func=func)
        return p

    add("choi", _cmd_choi, "Choi matrix of a map file")
    add("dphi", _cmd_dphi, "dual Choi operator over the file's state")
    add("adjoint", _cmd_adjoint, "trace-pairing adjoint, emitted as a map file")

    p = add("cp", _cmd_cp, "five-way complete positivity report", verdict=True)
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9)

    p = add("kraus", _cmd_kraus, "Kraus operators from the dual Choi operator",
            verdict=True)
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9)

    p = add("positive", _cmd_positive, "positivity certificate via product pairings",
            verdict=True)
    p.add_argument("--restarts", type=_at_least(int, 1), default=32)
    p.add_argument("--iters", type=_at_least(int, 0), default=500)
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9)
    p.add_argument("--seed", type=_at_least(int, 0), default=42)
    p.add_argument("--oracle", action="store_true",
                   help="confirm with the dense grid search (n = 2 only)")
    p.add_argument("--resolution", type=_at_least(int, 1), default=90)

    p = add("spectral", _cmd_spectral, "spectral decomposition of an element file")
    p.add_argument("--tol", type=_at_least(float, 0), default=1e-9)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflowed operators end in an error line, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            doc, ok = args.func(args)
            text = formats.dumps(doc, pretty=args.pretty)
    except InternalDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ChoiFactorError, MemoryError) as exc:  # MemoryError: input too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        # LAPACK gives up on overflowed (inf or NaN) operators
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    print(text)
    if getattr(args, "assert_", False) and not ok:
        return 3
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
