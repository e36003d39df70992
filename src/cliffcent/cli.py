"""Command-line front end: centralizer queries, sweeps, and the reduction table.

Exit codes: 0 success, 1 bad input (or a stdout closed by its reader),
2 a cross-check found a mismatch.

One parser serves every ``main`` call in a process.  ``CLIFFCENT_MAX_DIM``
is read each time a command line is parsed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .blades import Signature, format_blade, index_lists_json, make_signature, parse_int
from .centralizers import (
    SWEEP_MAX_DIM,
    SWEEP_TARGET_FAMILIES,
    CentralizerKind,
    VerifyReport,
    report_json,
    summarize,
    sweep_verify,
    table1_rows,
    verify_case,
)

DEFAULT_SWEEP_BOUND = 7
SWEEP_BOUND_ENV = "CLIFFCENT_MAX_DIM"
_KIND_NAMES = tuple(kind.value for kind in CentralizerKind)


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; here 2 means a
    mismatch, so usage problems exit 1 instead."""

    def parse_known_args(self, args=None, namespace=None):
        # main reuses one parser, so --max-dim's default is read here, per
        # parse.  argparse runs a string default through ``type``, so a
        # non-integer environment value exits 1 like a bad --max-dim.
        for action in self._actions:
            if action.dest == "max_dim":
                action.default = os.environ.get(SWEEP_BOUND_ENV, DEFAULT_SWEEP_BOUND)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_signature(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"signature must be p,q,r — got {text!r}")
    try:
        p, q, r = map(parse_int, parts)
    except ValueError:
        raise ValueError(f"signature must be three integers — got {text!r}") from None
    return make_signature(p, q, r)


def _max_dim(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ASCII integer: {text!r}") from None


def _print_diff(report: VerifyReport) -> None:
    """The blades on which the routes disagree, one indented line per list."""
    for name, extra in sorted(report.diff.items()):
        if extra:
            print(f"  {name}: {', '.join(extra)}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cliffcent",
                     description="Centralizers of blade-spanned subspaces "
                                 "of Clifford algebras Cl(p,q,r).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, signature=True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        if signature:
            cmd.add_argument("--signature", required=True, metavar="p,q,r")
        return cmd

    cent = command("centralizer", _cmd_centralizer,
                   "centralizer of one subspace in one algebra")
    cent.add_argument("--subspace", required=True, metavar="SPEC",
                      help="e.g. grade:2, qt:13, even, grade:1+grade:3")
    cent.add_argument("--kind", required=True, choices=_KIND_NAMES)

    command("center", _cmd_center, "center of one algebra")

    verify = command("verify", _cmd_verify,
                     "sweep all signatures and cross-check routes",
                     signature=False)
    # its default comes from the environment, per parse (_Parser)
    verify.add_argument("--max-dim", type=_max_dim, metavar="N",
                        help="largest generator count to sweep")
    verify.add_argument("--targets", choices=(*SWEEP_TARGET_FAMILIES, "all"),
                        default="all")
    verify.add_argument("--kinds", nargs="+", choices=_KIND_NAMES,
                        default=list(_KIND_NAMES))

    command("table1", _cmd_table1, "the fourteen centralizer reductions, "
                                   "instantiated and brute-checked")

    for cmd in sub.choices.values():
        cmd.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _json_object(head: dict, key: str, text: str, match: bool) -> str:
    """``json.dumps({**head, key: value, "match": match})``, where ``text``
    is ``value`` already in JSON."""
    return f'{json.dumps(head)[:-1]}, "{key}": {text}, "match": {json.dumps(match)}}}'


def _print_query(fmt: str, header: str, report: VerifyReport) -> int:
    """One centralizer query: its brute-force blades and the closed form's
    verdict.  ``center`` is the plain centralizer of the whole algebra."""
    if fmt == "json":
        sig = report.signature
        print(_json_object({
            "signature": {"p": sig.p, "q": sig.q, "r": sig.r},
            "kind": report.kind.value,
            "subspace": report.target,
        }, "blades", index_lists_json(report.brute_blades), report.match))
    else:
        print(header)
        print(", ".join(map(format_blade, report.brute_blades)) or "{0}")
        if not report.matches:
            print("closed form: not available for this target")
        elif report.match:
            print("closed form: agrees")
        else:
            print("closed form: MISMATCH")
            _print_diff(report)
    return 0 if report.match else 2


def _cmd_centralizer(args) -> int:
    r = verify_case(_parse_signature(args.signature), args.subspace,
                    CentralizerKind(args.kind), with_nullspace=False)
    return _print_query(
        args.format, f"{r.signature} {r.kind.value} centralizer of {r.target}", r)


def _cmd_center(args) -> int:
    r = verify_case(_parse_signature(args.signature), "all",
                    CentralizerKind.PLAIN, with_nullspace=False)
    return _print_query(args.format, f"center of {r.signature}", r)


def _cmd_verify(args) -> int:
    if not 1 <= args.max_dim <= SWEEP_MAX_DIM:
        raise ValueError(f"--max-dim must be in 1..{SWEEP_MAX_DIM}, "
                         f"got {args.max_dim}")
    kinds = tuple(CentralizerKind(name) for name in dict.fromkeys(args.kinds))
    reports = sweep_verify(args.max_dim, targets=args.targets, kinds=kinds)
    total, mismatches = summarize(reports)
    if args.format == "json":
        # record by record, byte-identical to json.dumps of the whole list
        write = sys.stdout.write
        write("[")
        for i, r in enumerate(reports):
            if i:
                write(", ")
            write(report_json(r))
        write("]\n")
    else:
        for r in reports:
            status = "ok" if r.match else "MISMATCH"
            print(f"{status} {r.signature} {r.kind.value} {r.target} "
                  f"({len(r.brute_blades)} blades)")
            _print_diff(r)
        verdict = "PASS" if mismatches == 0 else "FAIL"
        print(f"{verdict}: {total} cases, {mismatches} mismatches")
    return 0 if mismatches == 0 else 2


def _cmd_table1(args) -> int:
    sig = _parse_signature(args.signature)
    rows = table1_rows(sig)
    all_match = all(row.match for row in rows)
    if args.format == "json":
        # Table1Row.to_json_dict, with its blades as JSON text
        texts = [_json_object(row.json_head(), "blades",
                              index_lists_json(row.subspace.sorted_blades()),
                              row.match)
                 for row in rows]
        print(_json_object({"signature": {"p": sig.p, "q": sig.q, "r": sig.r}},
                           "rows", f"[{', '.join(texts)}]", all_match))
    else:
        print(f"centralizer reductions in {sig}")
        for row in rows:
            flag = "MATCH" if row.match else "MISMATCH"
            print(f"{row.label} | {row.reduction} | {row.subspace} | {flag}")
    return 0 if all_match else 2


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # every handler reports bad input by raising ValueError before it prints
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"cliffcent: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (``| head``).  Point stdout at
        # devnull so the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
