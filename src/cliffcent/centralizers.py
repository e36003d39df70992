"""Centralizers of blade-spanned subspaces, computed three independent ways.

For a subspace S and an element X the three conditions are

* plain:          X V = V X            for all V in S,
* grade-twisted:  hat(X) V = V X       for all V in S,
* mix-twisted:    X <V>_0 + hat(X) <V>_1 = V X   for all V in S.

Route one tests every basis blade at once against the even and the odd
blades of S, with one exact integer transform per generator.  Route two solves
the defining linear system over the rationals.  Route three evaluates
closed-form descriptions assembled from graded pieces.  The verification
engine runs the routes side by side and reports every disagreement.
"""

from __future__ import annotations

import enum
import functools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .blades import (
    MAX_DIM,
    Blade,
    Signature,
    _check_int,
    blade_table,
    format_blade,
    index_lists,
    index_lists_json,
)
from .multivector import Multivector
from .subspaces import (
    Subspace,
    SubspaceSpec,
    _pack,
    _unpack,
    direct_sum,
    evaluate_spec,
    full_algebra,
    grade_subspace,
    intersect,
    lambda_even,
    lambda_range,
    nondeg_times_lambda,
    parity_part,
    parity_subspace,
    parse_subspace_spec,
)

if TYPE_CHECKING:  # numpy loads with the first route, as in blades.blade_table
    import numpy as np


class CentralizerKind(enum.Enum):
    PLAIN = "plain"
    GRADE_TWISTED = "hat"
    MIX_TWISTED = "tilde"


def _check_kind(kind) -> None:
    """Refuse anything but a ``CentralizerKind``, such as its value string."""
    if not isinstance(kind, CentralizerKind):
        raise ValueError(f"kind must be a CentralizerKind, got {kind!r}")


# -- route one: blade-by-blade brute force --------------------------------------

@functools.lru_cache(maxsize=None)
def _parities(n: int) -> Tuple[int, np.ndarray]:
    """For the blades b < 2^n: the mask of those with |b| even, and
    (-1)^|b| as a read-only int64 row."""
    import numpy as np

    odd = (np.bitwise_count(np.arange(1 << n)) & 1).astype(np.int64)
    signs = 1 - 2 * odd
    signs.flags.writeable = False
    return _pack(1 - odd), signs


def _transform(sig: Signature, row: np.ndarray) -> np.ndarray:
    """The row f of length 2^n mapped to x -> sum over v of f(v) times the
    product over generators i of K[x_i, v_i] (Yates's algorithm)."""
    import numpy as np

    # Each step combines the entries that differ in the lowest index bit and
    # moves that bit to the top, so after n steps every index is in place.
    row = row.astype(np.int64)
    for i in range(sig.n):
        low, high = row[0::2], row[1::2]
        row = np.concatenate((low + high, low - high if i < sig.p + sig.q else low))
    return row


@functools.lru_cache(maxsize=None)
def _part_masks(n: int, r: int, part: int) -> Tuple[int, int]:
    """Masks (same, flip) of the x where T(x), and (-1)^|x| T(x), equals
    T(x & degenerate_mask), with T the transform of ``part`` at Cl(n - r, 0, r)."""
    row = _transform(Signature(n - r, 0, r), _unpack(part, 1 << n))
    # The degenerate generators are the top bits, so in rows of 2^(n-r)
    # entries, x & degenerate_mask is the first entry of x's row.
    rows = row.reshape(-1, 1 << (n - r))
    signs = _parities(n)[1].reshape(rows.shape)
    count = rows[:, :1]
    return _pack((rows == count).ravel()), _pack((signs * rows == count).ravel())


# Per kind, the mask read from a target's (even, odd) part: 0 same, 1 flip.
_PART_SIDES = {CentralizerKind.PLAIN: (0, 1), CentralizerKind.GRADE_TWISTED: (1, 0),
               CentralizerKind.MIX_TWISTED: (0, 0)}


def brute_force_centralizer(sig: Signature, s: Subspace,
                            kind: CentralizerKind) -> Subspace:
    """All blades X whose kind-condition holds against every blade of S.

    For blades x and v the product xv vanishes exactly when x & v meets a
    degenerate generator; otherwise vx = (-1)^(|x||v| + |x & v|) xv, and
    hat(x) adds |x| to the exponent.  So the pair fails exactly when
    x & v & degenerate_mask = 0 and |x & v| + c_v |x| is odd, where c_v is
    |v| for plain, |v| + 1 for hat and 0 for tilde.  No metric sign is read.

    The condition is linear in V, so Z(S) = Z(S_even) ∩ Z(S_odd), and on
    one parity part c_v |x| is 0 for every v or |x| for every v.  One 2x2
    integer kernel per generator, [[1, 1], [1, -1]] if it is nondegenerate
    and [[1, 1], [1, 0]] if it is degenerate, maps a part's indicator row to
    T(x) = sum of (-1)^|x & v| over its v with x & v & degenerate_mask = 0
    (Yates's algorithm; the Walsh-Hadamard and subset-sum transforms), and
    T(x & degenerate_mask) counts those v.  So x passes the part with
    c_v |x| = 0 where T(x) reaches that count ("same"), and with |x| where
    (-1)^|x| T(x) does ("flip").  Each kind ANDs one mask of each part:
    plain the even part's same and the odd part's flip, hat the reverse,
    tilde both same.  One transform, O(n 2^n) exact integer operations
    whatever |S| is, gives both masks of a part, cached per (n, r, part):
    every split of p + q and every target that shares a part, such as
    qt:0, qt:1 and qt:01, reads them.
    """
    _check_kind(kind)
    if sig.n > MAX_DIM:
        raise ValueError(f"brute force limited to n <= {MAX_DIM}, got n = {sig.n}")
    if s.signature != sig:
        raise ValueError("subspace does not belong to the given signature")
    evens = _parities(sig.n)[0]
    even, odd = _PART_SIDES[kind]
    return Subspace(sig, _part_masks(sig.n, sig.r, s.mask & evens)[even]
                    & _part_masks(sig.n, sig.r, s.mask & ~evens)[odd])


# -- route two: exact nullspace of the defining linear system -------------------

# Generator-count bounds below blades.MAX_DIM: the oracle itself, the
# oracle leg that verify_case runs by default, and a sweep.
NULLSPACE_MAX_DIM = 8
ORACLE_LEG_MAX_DIM = 6
SWEEP_MAX_DIM = 10


@functools.lru_cache(maxsize=None)
def _oracle_rows(sig: Signature, v: Blade) -> Tuple[int, int]:
    """Masks (plain, twisted) of the columns x that blade v rules out: with
    P the sum of all blades and s(a, b) the sign of blade a times blade b,
    column x's one term in P v and in v P is s(x, v) and s(v, x) at blade
    x XOR v, and x is ruled out where twist(x) s(x, v) != s(v, x)."""
    probe = Multivector(sig, dict.fromkeys(range(1 << sig.n), 1))
    v_mv = Multivector(sig, {v: 1})
    left, right = (probe * v_mv).terms(), (v_mv * probe).terms()
    plain = twisted = 0
    for x in range(1 << sig.n):
        xv, vx = left.get(x ^ v, 0), right.get(x ^ v, 0)
        plain |= (xv != vx) << x
        twisted |= ((-xv if x.bit_count() & 1 else xv) != vx) << x
    return plain, twisted


# The row (0 plain, 1 twisted) that the oracle reads for an even and an odd v.
_ORACLE_TWIST = {CentralizerKind.PLAIN: (0, 0), CentralizerKind.GRADE_TWISTED: (1, 1),
                 CentralizerKind.MIX_TWISTED: (0, 1)}
_ONE = Fraction(1)  # every oracle basis element's coefficient, shared


def nullspace_centralizer_oracle(
        sig: Signature, s: Subspace,
        kind: CentralizerKind) -> Tuple[int, List[Multivector]]:
    """Dimension and rational basis of {X : condition(X, V) for all V in S}.

    The constraints come from full multivector products, so this path
    shares no commutation logic with the brute-force route: every sign
    comes from ``blade_product`` inside ``Multivector.__mul__``.

    One probe P, the sum of all 2^n basis blades with coefficient 1, stands
    for every column at once, so blade v costs one product per side, P v
    and v P.  Cl(p,q,r) is (Z/2)^n-graded, so column x lands only on blade
    x XOR v: its row has one entry, ruling x out unless twist(x) s(x, v) =
    s(v, x).  The twist is one sign per column, hat(x), so both twists'
    rows come from the same two products and depend only on (signature, v):
    they are cached and shared by every target and kind, and a signature
    costs at most 2 2^n products (2 sides, 2^n blades).  The system is
    diagonal, so it needs no elimination: the basis is the unit vector of
    every blade no row names, in the global order.
    """
    _check_kind(kind)
    if s.signature != sig:
        raise ValueError("subspace does not belong to the given signature")
    if sig.n > NULLSPACE_MAX_DIM:
        raise ValueError(
            f"nullspace oracle limited to n <= {NULLSPACE_MAX_DIM}, got n = {sig.n}")
    twist = _ORACLE_TWIST[kind]
    failing = 0
    for v in s.sorted_blades():
        failing |= _oracle_rows(sig, v)[twist[v.bit_count() & 1]]
    # x comes from the blade table, so it needs no check_blade
    basis = [Multivector(sig, {x: _ONE})
             for x in blade_table(sig.n).order if not failing >> x & 1]
    return len(basis), basis


def _oracle_span(dim: int, basis: Sequence[Multivector]) -> Tuple[int, bool]:
    """The mask of the union of the basis supports, and whether ``dim`` is
    its blade count.  A basis supported inside a blade set spans a subspace
    of it, so it spans the set exactly when both hold with the set's mask."""
    support = 0
    for mv in basis:
        for b in mv.blades():
            support |= 1 << b
    return support, dim == support.bit_count()


def nullspace_matches_blades(dim: int, basis: Sequence[Multivector],
                             blades: frozenset) -> bool:
    """Does span(basis) equal the span of the given blade set?"""
    support, consistent = _oracle_span(dim, basis)
    return consistent and support == sum(1 << b for b in set(blades))


# -- route three: closed forms ---------------------------------------------------

def _assemble(sig: Signature, parts: Sequence[Subspace]) -> Subspace:
    """Union of formula terms that must be disjoint except at the pseudoscalar.

    The grade-n term of a formula can coincide with the top slice of a
    product term; any other duplicate blade means the formula was assembled
    wrongly, an internal error and not bad input: ``RuntimeError``.
    """
    others = ~(1 << sig.full_mask)  # every bit but the pseudoscalar's
    acc = 0
    for part in parts:
        overlap = acc & part.mask & others
        if overlap:
            bad = format_blade((overlap & -overlap).bit_length() - 1)
            raise RuntimeError(f"closed-form terms overlap at {bad}")
        acc |= part.mask
    return Subspace(sig, acc)


# The paper's literal tables, as term data read by ``_table_form``.  An
# entry is (terms for even n, terms for odd n).
_L0, _L, _TOP = "Lambda^(0)", ("Lambda", 0), "Cl^n"

# The entries several tables share; "* 2" writes one list for both parities.
_Z = ((_L0,), (_L0, _TOP))  # the center
_Z2 = ((_L, _TOP),) * 2
_Z3 = ((_L0, (0, 1, 1), (1, 2, 0), (2, 2, 2)),
       (_L0, (0, 2, 2), (1, 3, 2), (2, 3, 3), _TOP))
_ZH1 = ((_L,),) * 2
_ZH3 = ((_L, (1, 2, 0), (2, 3, 0)),) * 2

# The paper's table of the plain and grade-twisted centralizers of Cl^m.
_SMALL_GRADE = {
    ("plain", 1): _Z,
    ("plain", 2): _Z2,
    ("plain", 3): _Z3,
    ("plain", 4): ((_L, (1, 3, 2), (2, 4, 3), _TOP),) * 2,
    ("hat", 1): _ZH1,
    ("hat", 2): ((_L0, (0, 1, 1), (1, 2, 2), _TOP),
                 (_L0, (0, 0, 0), (1, 1, 1))),
    ("hat", 3): _ZH3,
    ("hat", 4): ((_L0, (0, 3, 3), (0, 1, 1), (1, 4, 2), (2, 4, 3), (3, 4, 4), _TOP),
                 (_L0, (0, 2, 2), (0, 0, 0), (1, 3, 0), (2, 3, 0), (3, 3, 3))),
}

# The paper's table of the centralizers of quaternion-type pairs.
_QT_PAIR_TABLE = {
    ("plain", (0, 1)): _Z,
    ("plain", (0, 2)): _Z2,
    ("plain", (0, 3)): _Z3,
    ("plain", (1, 2)): _Z,
    ("plain", (1, 3)): _Z,
    ("plain", (2, 3)): ((_L0, (0, 1, 1), (1, 1, 1), (2, 2, 2)),
                        (_L0, (0, 2, 2), _TOP)),
    ("hat", (0, 1)): ((_L0,),) * 2,
    ("hat", (0, 2)): ((_L0, _TOP), (_L0,)),
    ("hat", (0, 3)): ((_L0, (1, 1, 1), (2, 2, 2)),
                      (_L0, (1, 2, 2), (2, 3, 3))),
    ("hat", (1, 2)): ((_L0, (0, 1, 1)), (_L0, (0, 0, 0))),
    ("hat", (1, 3)): _ZH1,
    ("hat", (2, 3)): ((_L0, (0, 1, 1), (1, 2, 0), (2, 2, 2)),
                      (_L0, (0, 0, 0), (1, 1, 1))),
    ("tilde", (0, 1)): _ZH1,
    ("tilde", (0, 2)): _Z2,
    ("tilde", (0, 3)): _ZH3,
    ("tilde", (1, 2)): _ZH1,
    ("tilde", (1, 3)): _ZH1,
    ("tilde", (2, 3)): ((_L, (1, 1, 1), (2, 2, 2)),) * 2,
}


def _table_form(sig: Signature, terms) -> Subspace:
    """The union of a term list's terms at ``sig``.

    A term is Lambda^(0) (_L0), Cl^n (_TOP), ("Lambda", b) for
    Lambda^[0, n-b], so that all of Lambda is _L, ("part", l, terms) for
    the grade-parity-l part of a term list, or (k, a, b) for
    Cl^k_{p,q,0} Lambda^[n-a, n-b].  Bounds are clamped to [0, r], and a
    product term that is empty here, with k > p + q or n - a > r, is not
    built.  No list needs a case of its own for r = n: then p + q = 0, so
    every term with k >= 1 is zero, and Cl^n lies inside Lambda, where
    _assemble allows the repeat.
    """
    n, parts = sig.n, []
    for term in terms:
        if term == _L0:
            parts.append(lambda_even(sig))
        elif term == _TOP:
            parts.append(grade_subspace(sig, n))
        elif term[0] == "Lambda":
            parts.append(lambda_range(sig, 0, n - term[1]))
        elif term[0] == "part":
            parts.append(parity_part(_table_form(sig, term[2]), term[1]))
        else:
            k, a, b = term
            if k <= sig.p + sig.q and n - a <= sig.r:
                parts.append(nondeg_times_lambda(sig, k, n - a, n - b))
    return _assemble(sig, parts)


def center_closed_form(sig: Signature) -> Subspace:
    """Center of the algebra: even degenerate exterior part, plus the
    pseudoscalar line when n is odd."""
    return _table_form(sig, _Z[sig.n & 1])


def _general_form(m: int, kind: CentralizerKind) -> list:
    """Plain or grade-twisted centralizer of Cl^m, 1 <= m <= n, as terms.

    T_f holds (k, m - j, 0), that is Cl^k_{p,q,0} Lambda^{>= n-m+j}, for
    each k < m with j = (k + f) mod 2 and k + j <= m - 1, plus Cl^n when
    m + f is even.  Plain with m even and hat with m odd give
    Lambda^{<= n-m-1} + T_0; the other two keep its even part and take
    their odd part from T_1.
    """
    t = [[(k, m - (k + f) % 2, 0) for k in range(m) if k + (k + f) % 2 < m]
         + [_TOP] * ((m + f) % 2 == 0) for f in (0, 1)]
    whole = [("Lambda", m + 1)] + t[0]
    if (kind is CentralizerKind.PLAIN) == (m % 2 == 0):
        return whole
    return [("part", 0, whole), ("part", 1, t[1])]


def _untwisted(kind: CentralizerKind, parity: int) -> CentralizerKind:
    """The kind to use on a target whose blades all have this parity.

    Against an even V the mix-twisted condition is the plain one, and
    against an odd V it is the grade-twisted one.  Checks both arguments.
    """
    _check_kind(kind)
    _check_int("grade", parity)
    if kind is not CentralizerKind.MIX_TWISTED:
        return kind
    return CentralizerKind.GRADE_TWISTED if parity & 1 else CentralizerKind.PLAIN


def closed_form_grade(sig: Signature, m: int,
                      kind: CentralizerKind) -> Subspace:
    """Closed form of the kind's centralizer of the grade-m subspace.

    Every 1 <= m <= n comes from one general formula, ``_general_form``:
    low exterior degrees plus products of non-degenerate grades with
    exterior tails, split by parity.  The formula reads only n, r and m, so
    each (n, r, m, untwisted kind) is built once per process.
    """
    kind = _untwisted(kind, m)
    if m < 0 or m > sig.n:
        return full_algebra(sig)
    return Subspace(sig, _closed_form_grade(sig.n, sig.r, m, kind))


@functools.lru_cache(maxsize=None)
def _closed_form_grade(n: int, r: int, m: int, kind: CentralizerKind) -> int:
    """The mask of ``closed_form_grade`` for 0 <= m <= n and a plain or hat
    kind, built at the class representative Cl(n - r, 0, r)."""
    sig = Signature(n - r, 0, r)
    if m == 0:
        if kind is CentralizerKind.PLAIN:
            return full_algebra(sig).mask
        return parity_subspace(sig, 0).mask
    return _table_form(sig, _general_form(m, kind)).mask


def closed_form_small_grade(sig: Signature, m: int,
                            kind: CentralizerKind) -> Subspace:
    """Literal small-grade case tables (m in 1..4, plain or grade-twisted)."""
    _check_int("grade", m)
    if m not in (1, 2, 3, 4):
        raise ValueError(f"small-grade forms cover m in 1..4, got {m}")
    if kind not in (CentralizerKind.PLAIN, CentralizerKind.GRADE_TWISTED):
        raise ValueError("small-grade tables exist for plain and hat kinds only")
    return _table_form(sig, _SMALL_GRADE[kind.value, m][sig.n & 1])


def closed_form_nondegenerate(sig: Signature, m: int,
                              kind: CentralizerKind) -> Subspace:
    """Non-degenerate case tables (r = 0): one of Cl, Cl^(0), Cl^0+Cl^n, Cl^0."""
    if sig.r != 0:
        raise ValueError(f"non-degenerate tables require r = 0, got {sig}")
    kind = _untwisted(kind, m)
    n = sig.n
    if m < 0 or m > n:
        return full_algebra(sig)
    m_even, n_even = m % 2 == 0, n % 2 == 0
    if kind is CentralizerKind.PLAIN:
        if m == 0 or (m == n and not m_even):
            return full_algebra(sig)
        if m == n:
            return parity_subspace(sig, 0)
        scalars_only = not m_even and n_even
    else:
        if m == n and m_even:
            return full_algebra(sig)
        if m == 0 or m == n:
            return parity_subspace(sig, 0)
        # m odd with m != n, or m even nonzero in odd dimension
        scalars_only = not m_even or not n_even
    scalars = grade_subspace(sig, 0)
    if scalars_only:
        return scalars
    return direct_sum([scalars, grade_subspace(sig, n)])


def closed_form_qt(sig: Signature, m: int, kind: CentralizerKind) -> Subspace:
    """Centralizer of the quaternion-type-m subspace, reduced to grade forms."""
    if m not in (0, 1, 2, 3):
        raise ValueError(f"quaternion type must be in 0..3, got {m!r}")
    kind = _untwisted(kind, m)
    if kind is CentralizerKind.PLAIN:
        return closed_form_grade(sig, 4 if m == 0 else m, kind)
    if m == 0:
        return parity_part(closed_form_grade(sig, 4, CentralizerKind.PLAIN), 0)
    return closed_form_grade(sig, m, kind)


_QT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _explicit_qt_pair(sig: Signature, pair: Tuple[int, int],
                      kind: CentralizerKind) -> Subspace:
    """The tabulated right-hand side for a quaternion-type pair."""
    return _table_form(sig, _QT_PAIR_TABLE[kind.value, pair][sig.n & 1])


def closed_form_qt_pair(sig: Signature, pair: Tuple[int, int],
                        kind: CentralizerKind) -> Subspace:
    """Centralizer of qt:k + qt:m: the intersection of the two types' forms."""
    for m in pair:
        _check_int("quaternion type", m)
    ordered = tuple(sorted(pair))
    if ordered not in _QT_PAIRS:
        raise ValueError(f"quaternion-type pair must be two distinct types "
                         f"from 0..3, got {pair}")
    k, m = ordered
    return intersect(closed_form_qt(sig, k, kind), closed_form_qt(sig, m, kind))


# -- verification engine ---------------------------------------------------------

TargetLike = Union[str, SubspaceSpec]


@dataclass
class VerifyReport:
    """Outcome of checking one (signature, target, kind) case."""

    signature: Signature
    target: str
    kind: CentralizerKind
    brute_blades: Tuple[Blade, ...]
    closed_blades: Optional[Tuple[Blade, ...]]
    nullspace_dim: Optional[int]
    matches: Dict[str, bool] = field(default_factory=dict)
    diff: Dict[str, List[str]] = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def match(self) -> bool:
        return all(self.matches.values())

    def to_json_dict(self) -> dict:
        sig = self.signature
        # agreeing routes share one tuple, and so one list
        brute = closed = index_lists(self.brute_blades)
        if self.closed_blades is not self.brute_blades:
            closed = (None if self.closed_blades is None
                      else index_lists(self.closed_blades))
        return {
            "signature": {"p": sig.p, "q": sig.q, "r": sig.r},
            "target": self.target,
            "kind": self.kind.value,
            "brute_blades": brute,
            "closed_blades": closed,
            "nullspace_dim": self.nullspace_dim,
            "matches": dict(self.matches),
            "match": self.match,
            "diff": dict(self.diff),
            "elapsed_ms": self.elapsed_ms,
        }


def report_json(report: VerifyReport) -> str:
    """``json.dumps(report.to_json_dict())``, with both blade lists read
    from the per-process text of ``index_lists_json``."""
    sig = report.signature
    brute = closed = index_lists_json(report.brute_blades)
    if report.closed_blades is not report.brute_blades:
        closed = ("null" if report.closed_blades is None
                  else index_lists_json(report.closed_blades))
    head = json.dumps({"signature": {"p": sig.p, "q": sig.q, "r": sig.r},
                       "target": report.target, "kind": report.kind.value})
    tail = json.dumps({"nullspace_dim": report.nullspace_dim,
                       "matches": report.matches, "match": report.match,
                       "diff": report.diff, "elapsed_ms": report.elapsed_ms})
    return (f'{head[:-1]}, "brute_blades": {brute}, '
            f'"closed_blades": {closed}, {tail[1:]}')


def _closed_form(sig: Signature, spec: SubspaceSpec,
                 kind: CentralizerKind) -> Optional[Subspace]:
    """The target's closed form, or None when it has none.

    The centralizer condition is linear in V, so the centralizer of a direct
    sum, a grade range or ``all`` included, is the intersection of its
    summands' centralizers; grades outside [0, n] span nothing, so they add
    no condition.  Atoms without a closed form (bare lambda pieces) make the
    whole target formula-free.
    """
    forms: List[Subspace] = []
    for atom in spec.atoms:
        tag = atom[0]
        if tag == "grade":
            forms.append(closed_form_grade(sig, atom[1], kind))
        elif tag == "all" and kind is CentralizerKind.PLAIN:
            forms.append(center_closed_form(sig))  # the paper's center Z
        elif tag in ("grade_range", "all"):
            lo, hi = atom[1:] if tag == "grade_range" else (0, sig.n)
            forms += [closed_form_grade(sig, m, kind)
                      for m in range(max(lo, 0), min(hi, sig.n) + 1)]
        elif tag == "qt":
            forms.append(closed_form_qt(sig, atom[1], kind))
        elif tag == "qt_pair":
            forms.append(closed_form_qt_pair(sig, (atom[1], atom[2]), kind))
        else:
            return None
    return functools.reduce(intersect, forms) if forms else full_algebra(sig)


def _closed_forms_for_target(sig: Signature, spec: SubspaceSpec,
                             kind: CentralizerKind) -> Dict[str, Subspace]:
    """Every applicable closed-form route for the target, by route name."""
    main = _closed_form(sig, spec, kind)
    if main is None:
        return {}  # no closed form for this target
    forms = {"closed_form": main}
    if len(spec.atoms) == 1 and spec.atoms[0][0] == "grade":
        m = spec.atoms[0][1]
        if (kind.value, m) in _SMALL_GRADE:
            forms["small_grade"] = closed_form_small_grade(sig, m, kind)
        if sig.r == 0:
            forms["nondegenerate"] = closed_form_nondegenerate(sig, m, kind)
    elif len(spec.atoms) == 1 and spec.atoms[0][0] == "qt_pair":
        pair = tuple(sorted(spec.atoms[0][1:]))
        forms["qt_pair"] = _explicit_qt_pair(sig, pair, kind)
    return forms


# Targets are cached on private names, below every public entry point, so
# a wrapper or patch on a public name still sees every call.
@functools.lru_cache(maxsize=None)
def _parsed(text: str) -> SubspaceSpec:
    return parse_subspace_spec(text)


@functools.lru_cache(maxsize=None)
def _target(sig: Signature, spec: SubspaceSpec) -> Subspace:
    return evaluate_spec(sig, spec)


def verify_case(sig: Signature, target: TargetLike, kind: CentralizerKind,
                with_nullspace: Optional[bool] = None) -> VerifyReport:
    """Run every available route for one case and report all comparisons.

    Each closed form, then the oracle, is a leg (name, mask, consistent,
    side) that agrees when it is consistent and has brute force's mask; a
    mismatch lists ``<name>_only_brute`` and ``<name>_only_<side>``."""
    spec = _parsed(target) if isinstance(target, str) else target
    if not isinstance(sig, Signature) or not isinstance(spec, SubspaceSpec):
        evaluate_spec(sig, spec)  # refuses it, naming the value, before the cache
    started = time.perf_counter()
    s = _target(sig, spec)
    brute = brute_force_centralizer(sig, s, kind)
    closed_forms = _closed_forms_for_target(sig, spec, kind)
    legs = [(name, form.mask, True, "closed")
            for name, form in closed_forms.items()]
    nullspace_dim = None
    if (with_nullspace if with_nullspace is not None
            else sig.n <= ORACLE_LEG_MAX_DIM):
        nullspace_dim, basis = nullspace_centralizer_oracle(sig, s, kind)
        legs.append(("nullspace", *_oracle_span(nullspace_dim, basis), "oracle"))
    matches: Dict[str, bool] = {}
    diff: Dict[str, List[str]] = {}
    for name, mask, consistent, side in legs:
        matches[name] = agree = consistent and mask == brute.mask
        if not agree:
            diff[name + "_only_brute"] = Subspace(sig, brute.mask & ~mask).names()
            diff[f"{name}_only_{side}"] = Subspace(sig, mask & ~brute.mask).names()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    main = closed_forms.get("closed_form")
    return VerifyReport(
        signature=sig,
        target=str(spec),
        kind=kind,
        brute_blades=brute.sorted_blades(),
        # agreeing routes share one tuple through the per-(n, mask) cache
        closed_blades=None if main is None else main.sorted_blades(),
        nullspace_dim=nullspace_dim,
        matches=matches,
        diff=diff,
        elapsed_ms=elapsed_ms,
    )


def all_signatures(max_n: int) -> List[Signature]:
    """All (p,q,r) with 1 <= p+q+r <= max_n, in deterministic order."""
    _check_int("max_n", max_n)
    out = []
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            for q in range(n - p + 1):
                out.append(Signature(p, q, n - p - q))
    return out


SWEEP_TARGET_FAMILIES = ("grades", "qtypes", "pairs")


def sweep_targets(sig: Signature, families: Sequence[str]) -> List[str]:
    targets: List[str] = []
    if "grades" in families:
        targets += [f"grade:{m}" for m in range(0, sig.n + 1)]
    if "qtypes" in families:
        targets += [f"qt:{m}" for m in range(4)]
    if "pairs" in families:
        targets += [f"qt:{k}{m}" for k, m in _QT_PAIRS]
    return targets


def sweep_verify(max_n: int,
                 targets: Union[str, Sequence[str]] = "all",
                 kinds: Optional[Sequence[CentralizerKind]] = None
                 ) -> List[VerifyReport]:
    """Verify every case for every signature up to max_n generators.

    ``targets`` is "all" or a subset of {"grades", "qtypes", "pairs"}.
    ``max_n`` must lie in 1..SWEEP_MAX_DIM.  The nullspace leg runs for
    the signatures with n <= ORACLE_LEG_MAX_DIM.
    """
    _check_int("max_n", max_n)
    if not 1 <= max_n <= SWEEP_MAX_DIM:
        raise ValueError(
            f"max_n must be in 1..{SWEEP_MAX_DIM}, got {max_n}")
    if isinstance(targets, str):
        families = SWEEP_TARGET_FAMILIES if targets == "all" else (targets,)
    else:
        families = tuple(targets)
    for family in families:
        if family not in SWEEP_TARGET_FAMILIES:
            raise ValueError(f"unknown target family {family!r}")
    if kinds is None:
        kinds = tuple(CentralizerKind)
    reports = []
    for sig in all_signatures(max_n):
        for target in sweep_targets(sig, families):
            for kind in kinds:
                reports.append(verify_case(sig, target, kind))
    return reports


def summarize(reports: Sequence[VerifyReport]) -> Tuple[int, int]:
    """(total cases, mismatch count)."""
    mismatches = sum(1 for r in reports if not r.match)
    return len(reports), mismatches


# -- the fourteen-row reduction table --------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One reduction: targets whose centralizer collapses to a known form."""

    label: str
    kind: CentralizerKind
    targets: Tuple[str, ...]
    reduction: str
    subspace: Subspace
    matches: Tuple[bool, ...]

    @property
    def match(self) -> bool:
        return all(self.matches)

    def json_head(self) -> dict:
        """The keys before ``blades``, which ``cli`` writes as text."""
        return {
            "target": self.label,
            "kind": self.kind.value,
            "target_specs": list(self.targets),
            "reduction": self.reduction,
        }

    def to_json_dict(self) -> dict:
        return {**self.json_head(),
                "blades": index_lists(self.subspace.sorted_blades()),
                "match": self.match}


_TABLE1_LAYOUT: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("plain", "Z[qt:1] = Z[qt:01] = Z[qt:12] = Z[qt:13]",
     ("qt:1", "qt:01", "qt:12", "qt:13"), "Z (center)"),
    ("hat", "Zh[qt:1] = Zh[qt:13]", ("qt:1", "qt:13"), "Zh^1"),
    ("plain", "Z[qt:2] = Z[qt:02]", ("qt:2", "qt:02"), "Z^2"),
    ("hat", "Zh[qt:2]", ("qt:2",), "Zh^2"),
    ("plain", "Z[qt:3] = Z[qt:03]", ("qt:3", "qt:03"), "Z^3"),
    ("hat", "Zh[qt:3]", ("qt:3",), "Zh^3"),
    ("plain", "Z[qt:0]", ("qt:0",), "Z^4"),
    ("hat", "Zh[qt:0]", ("qt:0",), "<Z^4>_(0)"),
    ("plain", "Z[qt:23]", ("qt:23",), "Z^2 n Z^3"),
    ("hat", "Zh[qt:12]", ("qt:12",), "Zh^1 n Zh^2"),
    ("hat", "Zh[qt:23]", ("qt:23",), "Zh^2 n Zh^3"),
    ("hat", "Zh[qt:01]", ("qt:01",), "<Z^1>_(0)"),
    ("hat", "Zh[qt:02]", ("qt:02",), "<Z^2>_(0)"),
    ("hat", "Zh[qt:03]", ("qt:03",), "<Z^3>_(0)"),
)


def table1_rows(sig: Signature) -> List[Table1Row]:
    """Instantiate the fourteen reductions and brute-check every equality."""
    rows = []
    for kind_name, label, targets, reduction in _TABLE1_LAYOUT:
        kind = CentralizerKind(kind_name)
        reduced = _closed_form(sig, _parsed(targets[0]), kind)
        matches = tuple(
            brute_force_centralizer(
                sig, _target(sig, _parsed(target)), kind
            ).mask == reduced.mask
            for target in targets)
        rows.append(Table1Row(label, kind, targets, reduction,
                              reduced, matches))
    return rows
