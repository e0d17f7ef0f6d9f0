"""Command line interface.

Exit codes: 0 success (including an inconclusive certificate search, which
is reported in the JSON body, not as a failure), 2 usage errors and failed
verification suites, 3 inapplicable preconditions (prime too small for the
scaled class, negative expected dimension).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import InapplicableError
from .giambelli import pk_beta, pk_eval, pk_full
from .hecke import rational_certificate, thaddeus_number
from .modular import certify_mod, find_gk, find_gpk
from .numbers import format_rational, parse_rational
from .store import Store
from .suites import SUITE_NAMES, run_suite
from .verdict import emit_table

__all__ = ["main", "build_parser"]

_ASSUMPTION_FLAGS = {"any": "any_curve", "petri": "petri", "general": "general"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke",
        description="Exact fundamental-class computations for rank-2 "
        "canonical-determinant Brill-Noether loci.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pk", help="print the class polynomial P_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=["full", "beta"], default="full")

    p = sub.add_parser("pk-eval", help="evaluate P_k at a rational point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=parse_rational, required=True)
    p.add_argument("--beta", type=parse_rational, required=True)
    p.add_argument("--gamma", type=parse_rational, required=True)

    p = sub.add_parser("thaddeus", help="intersection number (a^m b^n c^p)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("mod-cert", help="prime-field non-vanishing certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prime", type=int, default=None)

    p = sub.add_parser("rational-cert", help="exact-pairing certificate")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=512)

    p = sub.add_parser("gk", help="smallest prime with g-1 >= k(k-1)/4")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("gpk", help="smallest prime with 3g-3 >= k(k+1)/2")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("verdict", help="emptiness verdict table over a grid")
    p.add_argument("--g", required=True, metavar="A..B")
    p.add_argument("--k", required=True, metavar="A..B")
    p.add_argument(
        "--assumption", choices=sorted(_ASSUMPTION_FLAGS), default="general"
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, metavar="PATH")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=sorted(SUITE_NAMES), required=True)

    return parser


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_pk(args) -> int:
    rec = (pk_full if args.variant == "full" else pk_beta)(args.k, store=Store())
    _print_json(rec.to_json_obj())
    return 0


def _cmd_pk_eval(args) -> int:
    print(format_rational(pk_eval(args.k, args.h, args.beta, args.gamma)))
    return 0


def _cmd_thaddeus(args) -> int:
    print(thaddeus_number(args.g, args.m, args.n, args.p))
    return 0


def _cmd_mod_cert(args) -> int:
    store = Store()
    cert = certify_mod(args.k, g=args.prime, store=store)
    if cert is None:
        _print_json({"status": "inconclusive", "k": args.k})
        return 0
    store.put_certificate(cert)
    _print_json(cert.to_json_obj())
    return 0


def _cmd_rational_cert(args) -> int:
    store = Store()
    witness = rational_certificate(args.g, args.k, budget=args.budget, store=store)
    if witness is None:
        _print_json({"status": "inconclusive", "g": args.g, "k": args.k})
        return 0
    store.put_certificate(witness.certificate)
    _print_json(witness.certificate.to_json_obj())
    return 0


def _cmd_verdict(args) -> int:
    text = emit_table(
        args.g,
        args.k,
        assumption=_ASSUMPTION_FLAGS[args.assumption],
        fmt=args.format,
        store=Store(),
    )
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite)
    _print_json(report.to_json_obj())
    return 0 if report.passed else 2


_COMMANDS = {
    "pk": _cmd_pk,
    "pk-eval": _cmd_pk_eval,
    "thaddeus": _cmd_thaddeus,
    "mod-cert": _cmd_mod_cert,
    "rational-cert": _cmd_rational_cert,
    "gk": lambda args: (print(find_gk(args.k)), 0)[1],
    "gpk": lambda args: (print(find_gpk(args.k)), 0)[1],
    "verdict": _cmd_verdict,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InapplicableError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
