"""The benchmark's workloads: which ops each one runs and how each op is checked.

An op is one call into cliffcent's public API, made in a closed loop from one
process: the next op starts only when the previous one has returned.  Every op
belongs to a group, the signature it runs in.  A seed reorders the groups of
equal n and the ops inside each group but never splits a group, so the
brute-force route's 64-entry per-signature sign-table cache is filled once per
group and never thrashes.  Two things stay fixed so that a seed changes the
order but not what each op costs:

* groups run in ascending n, as ``sweep_verify`` does, so the set of smaller
  tables cached when the largest one is built, and with it peak RSS, is the
  same for every seed;
* the first op of each group (``grade:0`` plain in a sweep, ``center`` in the
  CLI workload) stays first, so the table build always lands on it.

Why these workloads (shares from cProfile on the first benchmarked commit):

* ``sweep_oracle`` -- ``verify_case`` for every signature with n <= 4, every
  target family and every kind, with the nullspace leg on (1,437 cases).
  Most of the time is the nullspace oracle, mostly ``Multivector`` products
  and ``blade_product`` assembly; exact elimination is a few percent.  The
  sign tables are tiny here, so a brute-force kernel change shows no change
  on it.
* ``sweep_closed`` -- the same sweep for every signature with n <= 8 with the
  nullspace leg off (8,382 cases).  Time splits between closed-form assembly,
  ``Subspace`` construction and brute force on many small tables; the
  nullspace route does no work.

Both sweeps serialize each report as ``cliffcent verify --format json`` does.
Their bounds (n <= 4 and n <= 8, not 5 and 9) keep a pass to a few seconds, so
a run holds several passes and each op's mean time over them is steadier on a
shared CPU.
* ``cli_large`` -- in-process ``cliffcent.cli.main`` queries with JSON output
  on thirteen algebras with n = 10, 11 and 12 (non-degenerate, mixed and
  exterior signatures).  Brute force over cold 4^n sign tables dominates time
  and peak memory.  n stays at 12 or below: one n = 13 table alone peaks
  near 1.3 GiB.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from cliffcent import centralizers, cli
from cliffcent.centralizers import CentralizerKind

# Exact case counts of the full sweeps: every signature up to the bound,
# every target family, every kind.  A change that alters the enumeration
# fails the benchmark instead of silently measuring different work.
FULL_SWEEP_CASES = {"sweep_oracle": 1437, "sweep_closed": 8382}

# (p, q, r) for cli_large: per n, non-degenerate, mixed-metric with a
# degenerate part, and pure exterior signatures.
CLI_ALGEBRAS = (
    (10, 0, 0), (4, 3, 3), (6, 0, 4), (0, 0, 10),
    (0, 11, 0), (5, 4, 2), (3, 2, 6), (1, 0, 10), (0, 0, 11),
    (6, 6, 0), (7, 3, 2), (2, 2, 8), (0, 0, 12),
)
# Toy sizes for the harness's own tests: n <= 2 plus one n = 6 algebra.
SMOKE_CLI_ALGEBRAS = ((1, 1, 0), (0, 0, 2), (3, 1, 2))


@dataclass(frozen=True)
class Op:
    group: str   # the signature as "p,q,r"
    args: tuple


def _group(p: int, q: int, r: int) -> str:
    return f"{p},{q},{r}"


def serialize(report) -> str:
    return json.dumps(report.to_json_dict())


class Sweep:
    """``verify_case`` over every (signature, target, kind) up to a bound."""

    def __init__(self, name: str, max_n: int, with_nullspace: bool):
        self.name = name
        self.max_n = max_n
        self.with_nullspace = with_nullspace

    def ops(self, smoke: bool) -> List[Op]:
        max_n = 2 if smoke else self.max_n
        families = centralizers.SWEEP_TARGET_FAMILIES
        ops = [Op(_group(sig.p, sig.q, sig.r),
                  (sig, target, kind, self.with_nullspace))
               for sig in centralizers.all_signatures(max_n)
               for target in centralizers.sweep_targets(sig, families)
               for kind in CentralizerKind]
        if not smoke and len(ops) != FULL_SWEEP_CASES[self.name]:
            raise RuntimeError(f"{self.name}: enumerated {len(ops)} cases, "
                               f"expected {FULL_SWEEP_CASES[self.name]}")
        return ops

    @staticmethod
    def run(op: Op, serialize):
        sig, target, kind, with_nullspace = op.args
        report = centralizers.verify_case(sig, target, kind,
                                          with_nullspace=with_nullspace)
        return report, serialize(report)

    def check(self, op: Op, result) -> Optional[str]:
        """Canonical output of a correct op, or None when the op is wrong."""
        report, text = result
        if not report.match or not text:
            return None
        if ("nullspace" in report.matches) != self.with_nullspace:
            return None
        return (f"{report.target} {report.kind.value} {report.brute_blades} "
                f"{report.closed_blades} {report.nullspace_dim}")


class CliQueries:
    """In-process ``cliffcent`` queries with ``--format json`` output."""

    name = "cli_large"

    def ops(self, smoke: bool) -> List[Op]:
        ops = []
        for p, q, r in (SMOKE_CLI_ALGEBRAS if smoke else CLI_ALGEBRAS):
            sig = f"{p},{q},{r}"
            group = _group(p, q, r)
            ops.append(Op(group, ("center", "--signature", sig)))
            for target in ("grade:2", "qt:13"):
                for kind in CentralizerKind:
                    ops.append(Op(group, ("centralizer", "--signature", sig,
                                          "--subspace", target,
                                          "--kind", kind.value)))
            ops.append(Op(group, ("table1", "--signature", sig)))
        return ops

    @staticmethod
    def run(op: Op, serialize):
        """``serialize`` is unused: the CLI writes its own JSON."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*op.args, "--format", "json"])
        return code, out.getvalue()

    def check(self, op: Op, result) -> Optional[str]:
        code, text = result
        if code != 0:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        if payload.get("match") is not True:
            return None
        if "rows" in payload:
            if not all(row["match"] for row in payload["rows"]):
                return None
            blades = [row["blades"] for row in payload["rows"]]
        else:
            blades = payload["blades"]
        return json.dumps([list(op.args), blades])


WORKLOADS = {
    "sweep_oracle": Sweep("sweep_oracle", 4, with_nullspace=True),
    "sweep_closed": Sweep("sweep_closed", 8, with_nullspace=False),
    "cli_large": CliQueries(),
}


def seeded_order(ops: List[Op], seed: int) -> List[Op]:
    """Permute the groups of equal n and all but the first op of each group;
    keep groups whole and in ascending n."""
    rng = random.Random(seed)
    groups: Dict[str, List[Op]] = {}
    for op in ops:
        groups.setdefault(op.group, []).append(op)
    names = list(groups)
    rng.shuffle(names)
    names.sort(key=lambda group: sum(map(int, group.split(","))))
    ordered = []
    for name in names:
        first, *rest = groups[name]
        rng.shuffle(rest)
        ordered += [first, *rest]
    return ordered


def group_digests(canonical: List[Tuple[str, str]]) -> Dict[str, str]:
    """Order-independent digest of every group's canonical op outputs."""
    by_group: Dict[str, List[str]] = {}
    for group, text in canonical:
        by_group.setdefault(group, []).append(text)
    return {group: hashlib.sha256("\n".join(sorted(texts)).encode()).hexdigest()[:16]
            for group, texts in sorted(by_group.items())}
