"""Blade-spanned subspaces of Cl(p,q,r) and a small textual spec language.

Every subspace handled here is the span of a set of basis blades, so the
data model is simply (signature, frozenset of blade masks).  Each graded
constructor is a union of whole grades over a run of consecutive
generators, so it reads its blades off ``blades.blade_table``.  The range
conventions make the closed-form constructors total:

* grades of the full algebra live in [0, n]; anything outside is empty;
* grades of the degenerate exterior subalgebra live in [0, r];
* a lower bound <= 0 means "from the bottom", an upper bound >= the top
  means "to the top", and an empty range is the zero subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence, Tuple

from .blades import (
    Blade,
    Signature,
    blade_table,
    check_blade,
    format_blade,
    hat_sign,
    parse_int,
    tilde_sign,
)


@dataclass(frozen=True)
class Subspace:
    """A blade-spanned linear subspace; the zero subspace is the empty set."""

    signature: Signature
    blades: frozenset

    def __post_init__(self):
        # every blade lies in [0, full_mask] once the extremes do
        if self.blades:
            check_blade(self.signature, min(self.blades))
            check_blade(self.signature, max(self.blades))

    def sorted_blades(self) -> Tuple[Blade, ...]:
        """The blades in the global enumeration order."""
        rank = blade_table(self.signature.n).rank
        return tuple(sorted(self.blades, key=rank.__getitem__))

    def dimension(self) -> int:
        return len(self.blades)

    def __contains__(self, blade: Blade) -> bool:
        return blade in self.blades

    def __str__(self) -> str:
        if not self.blades:
            return "{0}"
        return ", ".join(format_blade(b) for b in self.sorted_blades())


def _make(sig: Signature, blades: Iterable[Blade]) -> Subspace:
    return Subspace(sig, frozenset(blades))


def zero_subspace(sig: Signature) -> Subspace:
    return _make(sig, ())


def full_algebra(sig: Signature) -> Subspace:
    return _make(sig, range(1 << sig.n))


def _by_grade(sig: Signature, first: int, width: int,
              lo: int, hi: int) -> Subspace:
    """Blades over generators first+1..first+width with grade in [lo, hi],
    the range clamped to [0, width].

    They are grades lo..hi of the width-generator table, each mask shifted
    up by ``first`` bits (multiplied by 2^first).
    """
    lo, hi = max(lo, 0), min(hi, width)
    if lo > hi:
        return zero_subspace(sig)
    table = blade_table(width)
    run = table.order[table.starts[lo]:table.starts[hi + 1]]
    return _make(sig, map((1 << first).__mul__, run))


def grade_subspace(sig: Signature, k: int) -> Subspace:
    """Cl^k: all blades of grade k; empty outside [0, n]."""
    return _by_grade(sig, 0, sig.n, k, k)


def grade_range(sig: Signature, lo: int, hi: int) -> Subspace:
    return _by_grade(sig, 0, sig.n, lo, hi)


def lambda_subspace(sig: Signature, l: int) -> Subspace:
    """Lambda^l: grade-l blades over the degenerate generators only."""
    return _by_grade(sig, sig.p + sig.q, sig.r, l, l)


def lambda_range(sig: Signature, lo: int, hi: int) -> Subspace:
    return _by_grade(sig, sig.p + sig.q, sig.r, lo, hi)


def lambda_full(sig: Signature) -> Subspace:
    return lambda_range(sig, 0, sig.r)


def nondeg_grade_subspace(sig: Signature, k: int) -> Subspace:
    """Cl^k_{p,q,0}: grade-k blades over the non-degenerate generators."""
    return _by_grade(sig, 0, sig.p + sig.q, k, k)


def product_span(a: Subspace, b: Subspace) -> Subspace:
    """{ab : a-blade, b-blade} for index-disjoint factors.

    With disjoint supports the product of two blades never annihilates and
    is again a single blade, so the span is just the set of unions.
    """
    if a.signature != b.signature:
        raise ValueError("signature mismatch in product_span")
    support_a = 0
    for x in a.blades:
        support_a |= x
    support_b = 0
    for y in b.blades:
        support_b |= y
    if support_a & support_b:
        raise ValueError("product_span factors must have disjoint index support")
    return _make(a.signature, (x | y for x in a.blades for y in b.blades))


def _grade_runs(sig: Signature, first: int, width: int,
                grades: Iterable[int]) -> Subspace:
    """Blades over generators first+1..first+width whose grade is one of
    ``grades`` (each in [0, width]): whole grade runs of the width-generator
    table, each mask shifted up by ``first`` bits."""
    order, _, starts = blade_table(width)
    runs = chain.from_iterable(order[starts[k]:starts[k + 1]] for k in grades)
    return _make(sig, map((1 << first).__mul__, runs) if first else runs)


def parity_subspace(sig: Signature, l: int) -> Subspace:
    """Cl^(0) (l=0) or Cl^(1) (l=1)."""
    if l not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {l}")
    return _grade_runs(sig, 0, sig.n, range(l, sig.n + 1, 2))


def parity_part(s: Subspace, l: int) -> Subspace:
    if l not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {l}")
    return _make(s.signature, (b for b in s.blades if b.bit_count() & 1 == l))


def lambda_even(sig: Signature) -> Subspace:
    """Lambda^(0): the even part of the degenerate exterior subalgebra."""
    return _grade_runs(sig, sig.p + sig.q, sig.r, range(0, sig.r + 1, 2))


def quaternion_type_subspace(sig: Signature, m: int) -> Subspace:
    """Blades whose hat and tilde signs match quaternion type m.

    Built from the two sign conditions, not from the grade mod 4 shortcut;
    the equivalence of the two descriptions is asserted by the test suite.
    Both signs depend on the grade alone, so each grade is tested once, on
    its first blade, and its whole run of the table is kept or dropped.
    """
    if m not in (0, 1, 2, 3):
        raise ValueError(f"quaternion type must be in 0..3, got {m}")
    want_hat = -1 if m & 1 else 1
    want_tilde = -1 if (m * (m - 1) // 2) & 1 else 1
    grades = []
    for k in range(sig.n + 1):
        first = (1 << k) - 1  # the first blade of grade k
        if hat_sign(first) == want_hat and tilde_sign(first) == want_tilde:
            grades.append(k)
    return _grade_runs(sig, 0, sig.n, grades)


def direct_sum(parts: Sequence[Subspace]) -> Subspace:
    """Union of pairwise disjoint blade sets; overlap is an error."""
    if not parts:
        raise ValueError("direct_sum of no subspaces has no signature")
    sig = parts[0].signature
    acc: set = set()
    for part in parts:
        if part.signature != sig:
            raise ValueError("signature mismatch in direct_sum")
        overlap = acc & part.blades
        if overlap:
            sample = format_blade(next(iter(overlap)))
            raise ValueError(f"direct_sum operands overlap (e.g. {sample})")
        acc |= part.blades
    return _make(sig, acc)


def subspace_equals(a: Subspace, b: Subspace) -> bool:
    return a.signature == b.signature and a.blades == b.blades


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """True when A is a superset of B."""
    return a.signature == b.signature and a.blades >= b.blades


def intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.signature != b.signature:
        raise ValueError("signature mismatch in intersect")
    return _make(a.signature, a.blades & b.blades)


# -- the textual spec grammar ---------------------------------------------------
#
#   atom  := "grade:" INT | "grade:" INT ".." INT | "lambda:" INT
#          | "even" | "odd" | "qt:" DIGIT | "qt:" DIGIT DIGIT | "all"
#   spec  := atom ("+" atom)*
#   INT   := "-"? [0-9]+        (ASCII digits only; blades.parse_int)
#
# "+" is a direct sum, so the operands must be disjoint.

@dataclass(frozen=True)
class SubspaceSpec:
    """Parsed subspace expression; evaluation is deferred to a signature."""

    atoms: Tuple[Tuple, ...]
    text: str

    def __str__(self) -> str:
        return self.text


def _parse_atom(atom: str, position: int) -> Tuple:
    atom = atom.strip()
    if atom == "all":
        return ("all",)
    if atom == "even":
        return ("qt_pair", 0, 2)
    if atom == "odd":
        return ("qt_pair", 1, 3)
    if atom.startswith("grade:"):
        body = atom[len("grade:"):]
        if ".." in body:
            lo_text, _, hi_text = body.partition("..")
            try:
                return ("grade_range", parse_int(lo_text), parse_int(hi_text))
            except ValueError:
                raise ValueError(
                    f"bad grade range {body!r} at position {position}") from None
        try:
            return ("grade", parse_int(body))
        except ValueError:
            raise ValueError(f"bad grade {body!r} at position {position}") from None
    if atom.startswith("lambda:"):
        body = atom[len("lambda:"):]
        try:
            return ("lambda", parse_int(body))
        except ValueError:
            raise ValueError(f"bad lambda grade {body!r} at position {position}") from None
    if atom.startswith("qt:"):
        body = atom[len("qt:"):]
        if body.isdigit() and all(d in "0123" for d in body):
            if len(body) == 1:
                return ("qt", int(body))
            if len(body) == 2 and body[0] < body[1]:
                return ("qt_pair", int(body[0]), int(body[1]))
        raise ValueError(f"bad quaternion type {body!r} at position {position}")
    raise ValueError(f"unknown subspace atom {atom!r} at position {position}")


def parse_subspace_spec(text: str) -> SubspaceSpec:
    if not text.strip():
        raise ValueError("empty subspace spec")
    atoms = []
    position = 0
    for chunk in text.split("+"):
        end = position + len(chunk)
        # a "+" right after ":" or ".." was meant as the sign of an INT
        if end < len(text) and chunk.rstrip().endswith((":", "..")):
            raise ValueError(
                f"'+' at position {end} is the direct-sum operator, not a sign")
        atoms.append(_parse_atom(chunk, position))
        position = end + 1
    return SubspaceSpec(tuple(atoms), text.strip())


def _evaluate_atom(sig: Signature, atom: Tuple) -> Subspace:
    tag = atom[0]
    if tag == "all":
        return full_algebra(sig)
    if tag == "grade":
        return grade_subspace(sig, atom[1])
    if tag == "grade_range":
        return grade_range(sig, atom[1], atom[2])
    if tag == "lambda":
        return lambda_subspace(sig, atom[1])
    if tag == "qt":
        return quaternion_type_subspace(sig, atom[1])
    if tag == "qt_pair":
        return direct_sum([quaternion_type_subspace(sig, atom[1]),
                           quaternion_type_subspace(sig, atom[2])])
    raise ValueError(f"unhandled atom {atom!r}")


def evaluate_spec(sig: Signature, spec: SubspaceSpec) -> Subspace:
    return direct_sum([_evaluate_atom(sig, atom) for atom in spec.atoms])


def subspace_from_text(sig: Signature, text: str) -> Subspace:
    return evaluate_spec(sig, parse_subspace_spec(text))
