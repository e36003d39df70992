"""Command-line front end: centralizer queries, sweeps, and the reduction table.

Exit codes: 0 success, 1 bad input, 2 a cross-check found a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .blades import Signature, blade_indices, make_signature
from .centralizers import (
    SWEEP_MAX_DIM,
    CentralizerKind,
    brute_force_centralizer,
    center_closed_form,
    summarize,
    sweep_verify,
    table1_rows,
    verify_case,
)
from .subspaces import Subspace, full_algebra, parse_subspace_spec

DEFAULT_SWEEP_BOUND = 7
SWEEP_BOUND_ENV = "CLIFFCENT_MAX_DIM"
_KIND_NAMES = tuple(kind.value for kind in CentralizerKind)


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; here 2 means a
    mismatch, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_signature(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"signature must be p,q,r — got {text!r}")
    try:
        p, q, r = (int(x) for x in parts)
    except ValueError:
        raise ValueError(f"signature must be three integers — got {text!r}") from None
    return make_signature(p, q, r)


def _blade_line(blades: Sequence[int]) -> str:
    from .blades import format_blade
    if not blades:
        return "{0}"
    return ", ".join(format_blade(b) for b in blades)


def _blade_lists(blades: Sequence[int]) -> List[List[int]]:
    return [list(blade_indices(b)) for b in blades]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cliffcent",
                     description="Centralizers of blade-spanned subspaces "
                                 "of Clifford algebras Cl(p,q,r).")
    sub = parser.add_subparsers(dest="command", required=True)

    cent = sub.add_parser("centralizer", parents=[],
                          help="centralizer of one subspace in one algebra")
    cent.add_argument("--signature", required=True, metavar="p,q,r")
    cent.add_argument("--subspace", required=True, metavar="SPEC",
                      help="e.g. grade:2, qt:13, even, grade:1+grade:3")
    cent.add_argument("--kind", required=True, choices=_KIND_NAMES)
    cent.add_argument("--format", choices=("text", "json"), default="text")

    center = sub.add_parser("center", help="center of one algebra")
    center.add_argument("--signature", required=True, metavar="p,q,r")
    center.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify",
                            help="sweep all signatures and cross-check routes")
    # argparse runs a string default through ``type``, so a non-integer
    # environment value exits 1 like a bad --max-dim.
    verify.add_argument("--max-dim", type=int,
                        default=os.environ.get(SWEEP_BOUND_ENV, DEFAULT_SWEEP_BOUND),
                        metavar="N", help="largest generator count to sweep")
    verify.add_argument("--targets", choices=("grades", "qtypes", "pairs", "all"),
                        default="all")
    verify.add_argument("--kinds", nargs="+", choices=_KIND_NAMES,
                        default=list(_KIND_NAMES))
    verify.add_argument("--format", choices=("text", "json"), default="text")

    table = sub.add_parser("table1",
                           help="the fourteen centralizer reductions, "
                                "instantiated and brute-checked")
    table.add_argument("--signature", required=True, metavar="p,q,r")
    table.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _cmd_centralizer(args) -> int:
    try:
        sig = _parse_signature(args.signature)
        spec = parse_subspace_spec(args.subspace)
        kind = CentralizerKind(args.kind)
        report = verify_case(sig, spec, kind, with_nullspace=False)
    except ValueError as exc:
        print(f"cliffcent: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = {
            "signature": {"p": sig.p, "q": sig.q, "r": sig.r},
            "kind": kind.value,
            "subspace": str(spec),
            "blades": _blade_lists(report.brute_blades),
            "match": report.match,
        }
        print(json.dumps(payload))
    else:
        print(f"{sig} {kind.value} centralizer of {spec}")
        print(_blade_line(report.brute_blades))
        if not report.matches:
            print("closed form: not available for this target")
        elif report.match:
            print("closed form: agrees")
        else:
            print("closed form: MISMATCH")
            for name, extra in sorted(report.diff.items()):
                if extra:
                    print(f"  {name}: {', '.join(extra)}")
    return 0 if report.match else 2


def _cmd_center(args) -> int:
    try:
        sig = _parse_signature(args.signature)
    except ValueError as exc:
        print(f"cliffcent: error: {exc}", file=sys.stderr)
        return 1
    brute = brute_force_centralizer(sig, full_algebra(sig),
                                    CentralizerKind.PLAIN)
    closed = center_closed_form(sig)
    agree = brute.blades == closed.blades
    if args.format == "json":
        payload = {
            "signature": {"p": sig.p, "q": sig.q, "r": sig.r},
            "kind": "plain",
            "subspace": "all",
            "blades": _blade_lists(brute.sorted_blades()),
            "match": agree,
        }
        print(json.dumps(payload))
    else:
        print(f"center of {sig}")
        print(_blade_line(brute.sorted_blades()))
        print("closed form: agrees" if agree else "closed form: MISMATCH")
    return 0 if agree else 2


def _cmd_verify(args) -> int:
    if not 1 <= args.max_dim <= SWEEP_MAX_DIM:
        print(f"cliffcent: error: --max-dim must be in 1..{SWEEP_MAX_DIM}, "
              f"got {args.max_dim}", file=sys.stderr)
        return 1
    kinds = tuple(CentralizerKind(name) for name in dict.fromkeys(args.kinds))
    reports = sweep_verify(args.max_dim, targets=args.targets, kinds=kinds)
    total, mismatches = summarize(reports)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports]))
    else:
        for r in reports:
            status = "ok" if r.match else "MISMATCH"
            print(f"{status} {r.signature} {r.kind.value} {r.target} "
                  f"({len(r.brute_blades)} blades)")
        verdict = "PASS" if mismatches == 0 else "FAIL"
        print(f"{verdict}: {total} cases, {mismatches} mismatches")
    return 0 if mismatches == 0 else 2


def _cmd_table1(args) -> int:
    try:
        sig = _parse_signature(args.signature)
    except ValueError as exc:
        print(f"cliffcent: error: {exc}", file=sys.stderr)
        return 1
    rows = table1_rows(sig)
    all_match = all(row.match for row in rows)
    if args.format == "json":
        payload = {
            "signature": {"p": sig.p, "q": sig.q, "r": sig.r},
            "rows": [row.to_json_dict() for row in rows],
            "match": all_match,
        }
        print(json.dumps(payload))
    else:
        print(f"centralizer reductions in {sig}")
        for row in rows:
            flag = "MATCH" if row.match else "MISMATCH"
            blades = _blade_line(row.subspace.sorted_blades())
            print(f"{row.label} | {row.reduction} | {blades} | {flag}")
    return 0 if all_match else 2


_HANDLERS = {
    "centralizer": _cmd_centralizer,
    "center": _cmd_center,
    "verify": _cmd_verify,
    "table1": _cmd_table1,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _HANDLERS[args.command](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
