"""Centralizers of blade-spanned subspaces, computed three independent ways.

For a subspace S and an element X the three conditions are

* plain:          X V = V X            for all V in S,
* grade-twisted:  hat(X) V = V X       for all V in S,
* mix-twisted:    X <V>_0 + hat(X) <V>_1 = V X   for all V in S.

Route one tests every basis blade against every basis blade of S.  Route
two solves the defining linear system over the rationals.  Route three
evaluates closed-form descriptions assembled from graded pieces.  The
verification engine runs the routes side by side and reports every
disagreement.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _linalg
from .blades import (
    Blade,
    Signature,
    all_blades,
    blade_grade,
    blade_indices,
    format_blade,
)
from .multivector import Multivector
from .subspaces import (
    Subspace,
    SubspaceSpec,
    direct_sum,
    evaluate_spec,
    full_algebra,
    grade_subspace,
    intersect,
    lambda_even,
    lambda_full,
    lambda_range,
    lambda_subspace,
    nondeg_grade_subspace,
    parity_part,
    parity_subspace,
    parse_subspace_spec,
    product_span,
    quaternion_type_subspace,
    subspace_from_text,
)


class CentralizerKind(enum.Enum):
    PLAIN = "plain"
    GRADE_TWISTED = "hat"
    MIX_TWISTED = "tilde"


# -- route one: blade-by-blade brute force --------------------------------------

# Columns of S tested per step: the work arrays stay at 2^n x 64 entries,
# under 9 MiB each at n = 16.
_BLOCK = 64


def brute_force_centralizer(sig: Signature, s: Subspace,
                            kind: CentralizerKind) -> Subspace:
    """All blades X whose kind-condition holds against every blade of S.

    For blades x and v the product xv vanishes exactly when x & v meets a
    degenerate generator; otherwise vx = (-1)^(|x||v| + |x & v|) xv, and
    hat(x) adds |x| to the exponent.  Each condition is thus a parity test
    and reads no metric sign: plain needs |x||v| + |x & v| even, hat needs
    |x|(|v| + 1) + |x & v| even, and tilde (plain for even v, hat for odd
    v) needs |x & v| even.
    """
    if s.signature != sig:
        raise ValueError("subspace does not belong to the given signature")
    # uint16 holds every mask: make_signature caps n at MAX_DIM = 16
    v_all = np.fromiter(s.blades, dtype=np.uint16, count=len(s.blades))
    v_parity = np.bitwise_count(v_all) & 1
    # the factor multiplying |x| in the exponent, mod 2
    if kind is CentralizerKind.PLAIN:
        x_factor = v_parity
    elif kind is CentralizerKind.GRADE_TWISTED:
        x_factor = v_parity ^ 1
    else:
        x_factor = np.zeros_like(v_parity)
    degenerate = np.uint16(sig.degenerate_mask)
    x = np.arange(1 << sig.n, dtype=np.uint16)
    for start in range(0, len(v_all), _BLOCK):
        block = slice(start, start + _BLOCK)
        shared = x[:, None] & v_all[None, block]
        x_parity = (np.bitwise_count(x) & 1)[:, None]
        exponent = np.bitwise_count(shared) + (x_parity & x_factor[None, block])
        ok = ((exponent & 1) == 0) | ((shared & degenerate) != 0)
        x = x[ok.all(axis=1)]
    return Subspace(sig, frozenset(x.tolist()))


# -- route two: exact nullspace of the defining linear system -------------------

# Generator-count bounds below blades.MAX_DIM: the oracle itself, the
# oracle leg that verify_case runs by default, and a sweep.
NULLSPACE_MAX_DIM = 8
ORACLE_LEG_MAX_DIM = 6
SWEEP_MAX_DIM = 10


def nullspace_centralizer_oracle(
        sig: Signature, s: Subspace,
        kind: CentralizerKind) -> Tuple[int, List[Multivector]]:
    """Dimension and rational basis of {X : condition(X, V) for all V in S}.

    The constraint matrix is assembled from full multivector products, so
    this path shares no commutation logic with the brute-force route.
    """
    if s.signature != sig:
        raise ValueError("subspace does not belong to the given signature")
    if sig.n > NULLSPACE_MAX_DIM:
        raise ValueError(
            f"nullspace oracle limited to n <= {NULLSPACE_MAX_DIM}, got n = {sig.n}")
    order = list(all_blades(sig))
    rows: Dict[Tuple[Blade, Blade], Dict[int, Fraction]] = {}
    for v in sorted(s.blades):
        v_mv = Multivector.basis_blade(sig, v)
        twist = (kind is CentralizerKind.GRADE_TWISTED
                 or (kind is CentralizerKind.MIX_TWISTED and blade_grade(v) & 1))
        for j, b in enumerate(order):
            x_mv = Multivector.basis_blade(sig, b)
            left = (x_mv.grade_involute() if twist else x_mv) * v_mv
            residual = left - v_mv * x_mv
            for result_blade, coeff in residual.terms().items():
                rows.setdefault((v, result_blade), {})[j] = coeff
    basis_vectors = _linalg.nullspace(list(rows.values()), len(order))
    basis = [
        Multivector.from_terms(sig, [(order[j], c) for j, c in vec.items()])
        for vec in basis_vectors
    ]
    return len(basis), basis


def nullspace_matches_blades(dim: int, basis: Sequence[Multivector],
                             blades: frozenset) -> bool:
    """Does span(basis) equal the span of the given blade set?

    Dimension equality plus support containment pins the span: a basis
    supported inside the blade set spans a subspace of it, and equal
    dimensions force equality.  The union of supports must then cover
    every blade.
    """
    if dim != len(blades):
        return False
    support: set = set()
    for mv in basis:
        support.update(mv.blades())
    return support == set(blades)


# -- route three: closed forms ---------------------------------------------------

def _assemble(sig: Signature, parts: Sequence[Subspace]) -> Subspace:
    """Union of formula terms that must be disjoint except at the pseudoscalar.

    The grade-n term of a formula can coincide with the top slice of a
    product term; any other duplicate blade means the formula was assembled
    wrongly, so it raises.
    """
    pseudoscalar = sig.full_mask
    acc: set = set()
    for part in parts:
        overlap = acc & part.blades
        if overlap - {pseudoscalar}:
            bad = format_blade(min(overlap - {pseudoscalar}))
            raise ValueError(f"closed-form terms overlap at {bad}")
        acc |= part.blades
    return Subspace(sig, frozenset(acc))


def _nondeg_times_lam_ge(sig: Signature, k: int, d: int) -> Subspace:
    return product_span(nondeg_grade_subspace(sig, k), lambda_range(sig, d, sig.r))


def _nondeg_times(sig: Signature, k: int, lam: Subspace) -> Subspace:
    return product_span(nondeg_grade_subspace(sig, k), lam)


def center_closed_form(sig: Signature) -> Subspace:
    """Center of the algebra: even degenerate exterior part, plus the
    pseudoscalar line when n is odd."""
    if sig.n & 1:
        return direct_sum([lambda_even(sig), grade_subspace(sig, sig.n)])
    return lambda_even(sig)


def _general_even_plain(sig: Signature, m: int) -> Subspace:
    n = sig.n
    parts = [lambda_range(sig, 0, n - m - 1)]
    parts += [_nondeg_times_lam_ge(sig, k, n - m + 1) for k in range(1, m - 2, 2)]
    parts += [_nondeg_times_lam_ge(sig, k, n - m) for k in range(0, m - 1, 2)]
    parts.append(grade_subspace(sig, n))
    return _assemble(sig, parts)


def _general_even_twisted(sig: Signature, m: int) -> Subspace:
    n = sig.n
    even_half = parity_part(_general_even_plain(sig, m), 0)
    odd_parts = [_nondeg_times_lam_ge(sig, k, n - m + 1) for k in range(0, m - 1, 2)]
    odd_parts += [_nondeg_times_lam_ge(sig, k, n - m) for k in range(1, m, 2)]
    odd_half = parity_part(_assemble(sig, odd_parts), 1)
    return direct_sum([even_half, odd_half])


def _general_odd_twisted(sig: Signature, m: int) -> Subspace:
    n = sig.n
    parts = [lambda_range(sig, 0, n - m - 1)]
    parts += [_nondeg_times_lam_ge(sig, k, n - m + 1) for k in range(1, m - 1, 2)]
    parts += [_nondeg_times_lam_ge(sig, k, n - m) for k in range(0, m, 2)]
    return _assemble(sig, parts)


def _general_odd_plain(sig: Signature, m: int) -> Subspace:
    n = sig.n
    even_half = parity_part(_general_odd_twisted(sig, m), 0)
    odd_parts = [_nondeg_times_lam_ge(sig, k, n - m + 1) for k in range(0, m - 2, 2)]
    odd_parts += [_nondeg_times_lam_ge(sig, k, n - m) for k in range(1, m - 1, 2)]
    odd_parts.append(grade_subspace(sig, n))
    odd_half = parity_part(_assemble(sig, odd_parts), 1)
    return direct_sum([even_half, odd_half])


def _grassmann_form(sig: Signature, m: int, kind: CentralizerKind) -> Subspace:
    """Exterior-algebra case (every generator degenerate)."""
    stable = direct_sum([
        lambda_even(sig),
        parity_part(lambda_range(sig, sig.n - m + 1, sig.r), 1),
    ])
    if m & 1:
        return stable if kind is CentralizerKind.PLAIN else full_algebra(sig)
    return full_algebra(sig) if kind is CentralizerKind.PLAIN else stable


def closed_form_grade(sig: Signature, m: int,
                      kind: CentralizerKind) -> Subspace:
    """Closed form of the kind's centralizer of the grade-m subspace."""
    if kind is CentralizerKind.MIX_TWISTED:
        if m == 0:
            return full_algebra(sig)
        delegated = (CentralizerKind.PLAIN if m % 2 == 0
                     else CentralizerKind.GRADE_TWISTED)
        return closed_form_grade(sig, m, delegated)
    if m < 0 or m > sig.n:
        return full_algebra(sig)
    if m == 0:
        if kind is CentralizerKind.PLAIN:
            return full_algebra(sig)
        return parity_subspace(sig, 0)
    if sig.r == sig.n:
        return _grassmann_form(sig, m, kind)
    if m % 2 == 0:
        if kind is CentralizerKind.PLAIN:
            return _general_even_plain(sig, m)
        return _general_even_twisted(sig, m)
    if kind is CentralizerKind.PLAIN:
        return _general_odd_plain(sig, m)
    return _general_odd_twisted(sig, m)


def closed_form_small_grade(sig: Signature, m: int,
                            kind: CentralizerKind) -> Subspace:
    """Literal small-grade case tables (m in 1..4, plain or grade-twisted)."""
    if m not in (1, 2, 3, 4):
        raise ValueError(f"small-grade forms cover m in 1..4, got {m}")
    if kind not in (CentralizerKind.PLAIN, CentralizerKind.GRADE_TWISTED):
        raise ValueError("small-grade tables exist for plain and hat kinds only")
    n, r = sig.n, sig.r
    n_odd = bool(n & 1)

    if kind is CentralizerKind.PLAIN:
        if m == 1:
            return center_closed_form(sig)
        if m == 2:
            if r != n:
                return _assemble(sig, [lambda_full(sig), grade_subspace(sig, n)])
            return lambda_full(sig)
        if m == 3:
            if n_odd:
                parts = [lambda_even(sig),
                         lambda_subspace(sig, n - 2),
                         _nondeg_times(sig, 1, lambda_range(sig, n - 3, n - 2)),
                         _nondeg_times(sig, 2, lambda_subspace(sig, n - 3)),
                         grade_subspace(sig, n)]
            else:
                parts = [lambda_even(sig),
                         lambda_subspace(sig, n - 1),
                         _nondeg_times_lam_ge(sig, 1, n - 2),
                         _nondeg_times(sig, 2, lambda_subspace(sig, n - 2))]
            return _assemble(sig, parts)
        # m == 4
        if r != n:
            parts = [lambda_full(sig),
                     _nondeg_times(sig, 1, lambda_range(sig, n - 3, n - 2)),
                     _nondeg_times(sig, 2, lambda_range(sig, n - 4, n - 3)),
                     grade_subspace(sig, n)]
            return _assemble(sig, parts)
        return lambda_full(sig)

    if m == 1:
        return lambda_full(sig)
    if m == 2:
        if n_odd:
            parts = [lambda_even(sig),
                     lambda_subspace(sig, n),
                     _nondeg_times(sig, 1, lambda_subspace(sig, n - 1))]
        elif r != n:
            parts = [lambda_even(sig),
                     lambda_subspace(sig, n - 1),
                     _nondeg_times(sig, 1, lambda_subspace(sig, n - 2)),
                     grade_subspace(sig, n)]
        else:
            parts = [lambda_even(sig), lambda_subspace(sig, n - 1)]
        return _assemble(sig, parts)
    if m == 3:
        parts = [lambda_full(sig),
                 _nondeg_times_lam_ge(sig, 1, n - 2),
                 _nondeg_times_lam_ge(sig, 2, n - 3)]
        return _assemble(sig, parts)
    # m == 4
    if n_odd:
        parts = [lambda_even(sig),
                 lambda_subspace(sig, n - 2),
                 lambda_subspace(sig, n),
                 _nondeg_times_lam_ge(sig, 1, n - 3),
                 _nondeg_times_lam_ge(sig, 2, n - 3),
                 _nondeg_times(sig, 3, lambda_subspace(sig, n - 3))]
    elif r != n:
        parts = [lambda_even(sig),
                 lambda_subspace(sig, n - 3),
                 lambda_subspace(sig, n - 1),
                 _nondeg_times(sig, 1, lambda_range(sig, n - 4, n - 2)),
                 _nondeg_times(sig, 2, lambda_range(sig, n - 4, n - 3)),
                 _nondeg_times(sig, 3, lambda_subspace(sig, n - 4)),
                 grade_subspace(sig, n)]
    else:
        parts = [lambda_even(sig),
                 lambda_subspace(sig, n - 3),
                 lambda_subspace(sig, n - 1)]
    return _assemble(sig, parts)


def closed_form_nondegenerate(sig: Signature, m: int,
                              kind: CentralizerKind) -> Subspace:
    """Non-degenerate case tables (r = 0): one of Cl, Cl^(0), Cl^0+Cl^n, Cl^0."""
    if sig.r != 0:
        raise ValueError(f"non-degenerate tables require r = 0, got {sig}")
    if kind is CentralizerKind.MIX_TWISTED:
        delegated = (CentralizerKind.PLAIN if m % 2 == 0
                     else CentralizerKind.GRADE_TWISTED)
        return closed_form_nondegenerate(sig, m, delegated)
    n = sig.n
    if m < 0 or m > n:
        return full_algebra(sig)
    whole = full_algebra(sig)
    even = parity_subspace(sig, 0)
    scalars = grade_subspace(sig, 0)
    scalars_plus_top = direct_sum([scalars, grade_subspace(sig, n)])
    m_even, n_even = m % 2 == 0, n % 2 == 0
    if kind is CentralizerKind.PLAIN:
        if m == 0 or (m == n and not m_even):
            return whole
        if m == n and m_even:
            return even
        if not m_even and n_even:
            return scalars
        return scalars_plus_top
    if m == n and m_even:
        return whole
    if m == 0 or (m == n and not m_even):
        return even
    if not m_even or not n_even:
        # m odd with m != n, or m even nonzero in odd dimension
        return scalars
    return scalars_plus_top


def closed_form_qt(sig: Signature, m: int, kind: CentralizerKind) -> Subspace:
    """Centralizer of the quaternion-type-m subspace, reduced to grade forms."""
    if m not in (0, 1, 2, 3):
        raise ValueError(f"quaternion type must be in 0..3, got {m}")
    if kind is CentralizerKind.PLAIN:
        return closed_form_grade(sig, 4 if m == 0 else m, kind)
    if kind is CentralizerKind.GRADE_TWISTED:
        if m == 0:
            return parity_part(closed_form_grade(sig, 4, CentralizerKind.PLAIN), 0)
        return closed_form_grade(sig, m, kind)
    # mix-twisted: parity of the target picks the earlier kind
    if m == 0:
        return closed_form_grade(sig, 4, CentralizerKind.PLAIN)
    if m == 2:
        return closed_form_grade(sig, 2, CentralizerKind.PLAIN)
    return closed_form_grade(sig, m, CentralizerKind.GRADE_TWISTED)


_QT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _explicit_qt_pair(sig: Signature, pair: Tuple[int, int],
                      kind: CentralizerKind) -> Subspace:
    """The tabulated right-hand side for a quaternion-type pair."""
    n, r = sig.n, sig.r
    n_odd = bool(n & 1)
    if kind is CentralizerKind.PLAIN:
        if pair in ((0, 1), (1, 2), (1, 3)):
            return center_closed_form(sig)
        if pair == (0, 2):
            return closed_form_small_grade(sig, 2, CentralizerKind.PLAIN)
        if pair == (0, 3):
            return closed_form_small_grade(sig, 3, CentralizerKind.PLAIN)
        # (2, 3)
        if n_odd:
            parts = [lambda_even(sig), lambda_subspace(sig, n - 2),
                     grade_subspace(sig, n)]
        else:
            parts = [lambda_even(sig), lambda_subspace(sig, n - 1),
                     _nondeg_times(sig, 1, lambda_subspace(sig, n - 1)),
                     _nondeg_times(sig, 2, lambda_subspace(sig, n - 2))]
        return _assemble(sig, parts)
    if kind is CentralizerKind.GRADE_TWISTED:
        if pair == (1, 3):
            return lambda_full(sig)
        if pair == (0, 1):
            return lambda_even(sig)
        if pair == (1, 2):
            extra = lambda_subspace(sig, n if n_odd else n - 1)
            return _assemble(sig, [lambda_even(sig), extra])
        if pair == (2, 3):
            if n_odd:
                parts = [lambda_even(sig), lambda_subspace(sig, n),
                         _nondeg_times(sig, 1, lambda_subspace(sig, n - 1))]
            else:
                parts = [lambda_even(sig), lambda_subspace(sig, n - 1),
                         _nondeg_times_lam_ge(sig, 1, n - 2),
                         _nondeg_times(sig, 2, lambda_subspace(sig, n - 2))]
            return _assemble(sig, parts)
        if pair == (0, 2):
            if not n_odd and r != n:
                return _assemble(sig, [lambda_even(sig), grade_subspace(sig, n)])
            return lambda_even(sig)
        # (0, 3)
        if n_odd:
            parts = [lambda_even(sig),
                     _nondeg_times(sig, 1, lambda_subspace(sig, n - 2)),
                     _nondeg_times(sig, 2, lambda_subspace(sig, n - 3))]
        else:
            parts = [lambda_even(sig),
                     _nondeg_times(sig, 1, lambda_subspace(sig, n - 1)),
                     _nondeg_times(sig, 2, lambda_subspace(sig, n - 2))]
        return _assemble(sig, parts)
    # mix-twisted
    if pair == (0, 2):
        return closed_form_small_grade(sig, 2, CentralizerKind.PLAIN)
    if pair in ((0, 1), (1, 2), (1, 3)):
        return lambda_full(sig)
    if pair == (0, 3):
        if r != n:
            parts = [lambda_full(sig),
                     _nondeg_times_lam_ge(sig, 1, n - 2),
                     _nondeg_times_lam_ge(sig, 2, n - 3)]
            return _assemble(sig, parts)
        return lambda_full(sig)
    # (2, 3)
    if r != n:
        parts = [lambda_full(sig),
                 _nondeg_times(sig, 1, lambda_subspace(sig, n - 1)),
                 _nondeg_times(sig, 2, lambda_subspace(sig, n - 2))]
        return _assemble(sig, parts)
    return lambda_full(sig)


def _intersection_qt_pair(sig: Signature, pair: Tuple[int, int],
                          kind: CentralizerKind) -> Subspace:
    """The defining intersection for a quaternion-type pair."""
    k, m = pair
    if kind is not CentralizerKind.MIX_TWISTED:
        return intersect(closed_form_qt(sig, k, kind),
                         closed_form_qt(sig, m, kind))
    if pair == (0, 2):
        return intersect(closed_form_qt(sig, 0, CentralizerKind.PLAIN),
                         closed_form_qt(sig, 2, CentralizerKind.PLAIN))
    if pair == (1, 3):
        return intersect(closed_form_qt(sig, 1, CentralizerKind.GRADE_TWISTED),
                         closed_form_qt(sig, 3, CentralizerKind.GRADE_TWISTED))
    even_type, odd_type = (k, m) if k % 2 == 0 else (m, k)
    return intersect(closed_form_qt(sig, even_type, CentralizerKind.PLAIN),
                     closed_form_qt(sig, odd_type, CentralizerKind.GRADE_TWISTED))


def closed_form_qt_pair(sig: Signature, pair: Tuple[int, int],
                        kind: CentralizerKind) -> Subspace:
    """Centralizer of a direct sum of two quaternion-type subspaces.

    Computed as the defining intersection and, independently, as the
    tabulated explicit form; the two must agree or something in the closed
    forms is broken, so a disagreement raises instead of returning.
    """
    ordered = tuple(sorted(pair))
    if ordered not in _QT_PAIRS:
        raise ValueError(f"quaternion-type pair must be two distinct types "
                         f"from 0..3, got {pair}")
    via_intersection = _intersection_qt_pair(sig, ordered, kind)
    via_table = _explicit_qt_pair(sig, ordered, kind)
    if via_intersection.blades != via_table.blades:
        only_int = [format_blade(b) for b in
                    sorted(via_intersection.blades - via_table.blades)]
        only_tab = [format_blade(b) for b in
                    sorted(via_table.blades - via_intersection.blades)]
        raise RuntimeError(
            f"{sig} qt pair {ordered} ({kind.value}): intersection and "
            f"explicit form disagree; only-intersection={only_int}, "
            f"only-explicit={only_tab}")
    return via_table


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
        return {
            "signature": {"p": sig.p, "q": sig.q, "r": sig.r},
            "target": self.target,
            "kind": self.kind.value,
            "brute_blades": [list(blade_indices(b)) for b in self.brute_blades],
            "closed_blades": (None if self.closed_blades is None else
                              [list(blade_indices(b)) for b in self.closed_blades]),
            "nullspace_dim": self.nullspace_dim,
            "matches": dict(self.matches),
            "match": self.match,
            "elapsed_ms": self.elapsed_ms,
        }


def _closed_forms_for_target(sig: Signature, spec: SubspaceSpec,
                             kind: CentralizerKind) -> Dict[str, Subspace]:
    """Every applicable closed-form route for the target, by route name.

    The centralizer condition is linear in V, so the centralizer of a direct
    sum is the intersection of the per-atom centralizers.  Atoms without a
    closed form (bare lambda pieces) make the whole target formula-free.
    """
    per_atom: List[Subspace] = []
    for atom in spec.atoms:
        tag = atom[0]
        if tag == "grade":
            per_atom.append(closed_form_grade(sig, atom[1], kind))
        elif tag == "grade_range":
            per_atom.append(_intersect_all(
                [closed_form_grade(sig, m, kind)
                 for m in range(atom[1], atom[2] + 1)], sig))
        elif tag == "qt":
            per_atom.append(closed_form_qt(sig, atom[1], kind))
        elif tag == "qt_pair":
            per_atom.append(closed_form_qt_pair(sig, (atom[1], atom[2]), kind))
        elif tag == "all":
            per_atom.append(_intersect_all(
                [closed_form_grade(sig, m, kind) for m in range(0, sig.n + 1)],
                sig))
        else:
            return {}  # no closed form for this target
    forms = {"closed_form": _intersect_all(per_atom, sig)}
    if len(spec.atoms) == 1 and spec.atoms[0][0] == "grade":
        m = spec.atoms[0][1]
        if 1 <= m <= 4 and kind is not CentralizerKind.MIX_TWISTED:
            forms["small_grade"] = closed_form_small_grade(sig, m, kind)
        if sig.r == 0:
            forms["nondegenerate"] = closed_form_nondegenerate(sig, m, kind)
    return forms


def _intersect_all(parts: List[Subspace], sig: Signature) -> Subspace:
    if not parts:
        return full_algebra(sig)
    acc = parts[0]
    for part in parts[1:]:
        acc = intersect(acc, part)
    return acc


def verify_case(sig: Signature, target: TargetLike, kind: CentralizerKind,
                with_nullspace: Optional[bool] = None) -> VerifyReport:
    """Run every available route for one case and report all comparisons."""
    spec = parse_subspace_spec(target) if isinstance(target, str) else target
    started = time.perf_counter()
    s = evaluate_spec(sig, spec)
    brute = brute_force_centralizer(sig, s, kind)
    matches: Dict[str, bool] = {}
    diff: Dict[str, List[str]] = {}
    closed_forms = _closed_forms_for_target(sig, spec, kind)
    for name, form in closed_forms.items():
        agree = form.blades == brute.blades
        matches[name] = agree
        if not agree:
            diff[name + "_only_brute"] = [
                format_blade(b) for b in sorted(brute.blades - form.blades)]
            diff[name + "_only_closed"] = [
                format_blade(b) for b in sorted(form.blades - brute.blades)]
    nullspace_dim = None
    run_nullspace = (with_nullspace if with_nullspace is not None
                     else sig.n <= ORACLE_LEG_MAX_DIM)
    if run_nullspace:
        nullspace_dim, basis = nullspace_centralizer_oracle(sig, s, kind)
        matches["nullspace"] = nullspace_matches_blades(
            nullspace_dim, basis, brute.blades)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    main = closed_forms.get("closed_form")
    return VerifyReport(
        signature=sig,
        target=str(spec),
        kind=kind,
        brute_blades=brute.sorted_blades(),
        closed_blades=None if main is None else main.sorted_blades(),
        nullspace_dim=nullspace_dim,
        matches=matches,
        diff=diff,
        elapsed_ms=elapsed_ms,
    )


def all_signatures(max_n: int, min_n: int = 1) -> List[Signature]:
    """All (p,q,r) with min_n <= p+q+r <= max_n, in deterministic order."""
    out = []
    for n in range(min_n, max_n + 1):
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
    ``max_n`` may not exceed SWEEP_MAX_DIM.  The nullspace leg runs for
    the signatures with n <= ORACLE_LEG_MAX_DIM.
    """
    if max_n > SWEEP_MAX_DIM:
        raise ValueError(
            f"sweep bound is {SWEEP_MAX_DIM} generators, got {max_n}")
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

    def to_json_dict(self) -> dict:
        return {
            "target": self.label,
            "kind": self.kind.value,
            "target_specs": list(self.targets),
            "reduction": self.reduction,
            "blades": [list(blade_indices(b))
                       for b in self.subspace.sorted_blades()],
            "match": self.match,
        }


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


def _table1_subspace(sig: Signature, kind: CentralizerKind,
                     first_target: str) -> Subspace:
    atom = parse_subspace_spec(first_target).atoms[0]
    if atom[0] == "qt":
        return closed_form_qt(sig, atom[1], kind)
    return closed_form_qt_pair(sig, (atom[1], atom[2]), kind)


def table1_rows(sig: Signature) -> List[Table1Row]:
    """Instantiate the fourteen reductions and brute-check every equality."""
    rows = []
    for kind_name, label, targets, reduction in _TABLE1_LAYOUT:
        kind = CentralizerKind(kind_name)
        reduced = _table1_subspace(sig, kind, targets[0])
        matches = tuple(
            brute_force_centralizer(
                sig, subspace_from_text(sig, target), kind
            ).blades == reduced.blades
            for target in targets)
        rows.append(Table1Row(label, kind, targets, reduction,
                              reduced, matches))
    return rows
