"""Signatures, basis blades, and the blade-level geometric product.

A blade is stored as an n-bit mask: bit ``i`` set means generator ``e_{i+1}``
is a factor.  The identity element is the empty mask.  Everything downstream
(multivectors, subspaces, centralizers) is built on the two facts computed
here: the product of two blades is ``sign * (a XOR b)`` with ``sign`` in
{-1, 0, +1}, and the sign is 0 exactly when the blades share a generator
that squares to zero.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Tuple

MAX_DIM = 16

Blade = int  # n-bit mask over generators 1..n


@dataclass(frozen=True)
class Signature:
    """Diagonal metric with p generators squaring to +1, q to -1, r to 0.

    Generator indices are 1-based and blocked: 1..p square to +1,
    p+1..p+q square to -1, and the trailing p+q+1..n are degenerate.

    ``n``, the masks and the hash are derived once, at construction: the
    blade product reads them on every call.  They take no part in ``repr``
    or ``==``, and the hash is that of ``(p, q, r)``.
    """

    p: int
    q: int
    r: int
    n: int = field(init=False, repr=False, compare=False)
    # Mask of the generators squaring to -1.
    negative_mask: int = field(init=False, repr=False, compare=False)
    # Mask of the generators squaring to 0 (the trailing r indices).
    degenerate_mask: int = field(init=False, repr=False, compare=False)
    full_mask: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q, r = self.p, self.q, self.r
        derive = functools.partial(object.__setattr__, self)
        derive("n", p + q + r)
        derive("negative_mask", ((1 << q) - 1) << p)
        derive("degenerate_mask", ((1 << r) - 1) << (p + q))
        derive("full_mask", (1 << self.n) - 1)
        derive("_hash", hash((p, q, r)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q},{self.r})"


def make_signature(p: int, q: int, r: int) -> Signature:
    """Validate and build a Signature; n = p+q+r must lie in [1, 16]."""
    for name, value in (("p", p), ("q", q), ("r", r)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    n = p + q + r
    if n < 1:
        raise ValueError("signature needs at least one generator")
    if n > MAX_DIM:
        raise ValueError(f"n = {n} exceeds the supported bound {MAX_DIM}")
    return Signature(p, q, r)


class ScaledBlade(NamedTuple):
    """A blade with a sign; sign 0 means the product annihilated."""

    sign: int
    blade: Blade


_ANNIHILATED = ScaledBlade(0, 0)


class CommuteClass(enum.Enum):
    COMMUTE = "commute"
    ANTICOMMUTE = "anticommute"
    ANNIHILATE = "annihilate"


def blade_grade(blade: Blade) -> int:
    return blade.bit_count()


def blade_indices(blade: Blade) -> Tuple[int, ...]:
    """1-based generator indices of a blade mask, ascending."""
    if blade < 0:
        raise ValueError(f"blade mask must be non-negative, got {blade}")
    out = []
    i = 1
    while blade:
        if blade & 1:
            out.append(i)
        blade >>= 1
        i += 1
    return tuple(out)


def blade_from_indices(indices) -> Blade:
    """Build a blade mask from 1-based indices; they must be strictly ascending."""
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError(f"indices must be strictly ascending, got {tuple(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def check_blade(sig: Signature, blade: Blade) -> None:
    """Refuse anything but an int (not bool) mask of a blade of ``sig``."""
    if type(blade) is not int:
        raise ValueError(f"blade {blade!r} is not an int mask")
    if blade < 0 or blade > sig.full_mask:
        raise ValueError(f"blade {blade:#x} not valid for {sig}")


def blade_product(sig: Signature, a: Blade, b: Blade) -> ScaledBlade:
    """Product of two basis blades: sign * (a XOR b).

    The sign combines the transposition parity of merging the two ascending
    index lists with the metric signs of the squared (shared) generators.
    A shared degenerate generator annihilates the product (sign 0).
    """
    full = sig.full_mask
    if not (type(a) is int and type(b) is int and 0 <= a <= full and 0 <= b <= full):
        check_blade(sig, a)
        check_blade(sig, b)
    shared = a & b
    if shared & sig.degenerate_mask:
        return _ANNIHILATED
    # Each index i of b moves left past the indices of a greater than i.
    swaps = 0
    rest = b
    while rest:
        low = rest & -rest
        swaps += (a & ~(2 * low - 1)).bit_count()
        rest ^= low
    sign = -1 if swaps & 1 else 1
    if (shared & sig.negative_mask).bit_count() & 1:
        sign = -sign
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(ScaledBlade, (sign, a ^ b))


def commute_class(sig: Signature, a: Blade, b: Blade) -> CommuteClass:
    """Classify the pair: ab = +ba, ab = -ba, or ab = ba = 0."""
    ab = blade_product(sig, a, b)
    if ab.sign == 0:
        return CommuteClass.ANNIHILATE
    ba = blade_product(sig, b, a)
    return CommuteClass.COMMUTE if ab.sign == ba.sign else CommuteClass.ANTICOMMUTE


def hat_sign(blade: Blade) -> int:
    """Grade-involution sign (-1)^k of a grade-k blade."""
    return -1 if blade_grade(blade) & 1 else 1


def tilde_sign(blade: Blade) -> int:
    """Reversion sign (-1)^(k(k-1)/2) of a grade-k blade."""
    k = blade_grade(blade)
    return -1 if (k * (k - 1) // 2) & 1 else 1


_INT = re.compile(r"-?[0-9]+")


def parse_int(text: str) -> int:
    """An INT of the input grammar, ``-?[0-9]+``: ASCII digits only, no
    sign "+", digit separator or surrounding space (all of which ``int``
    accepts)."""
    if not _INT.fullmatch(text):
        raise ValueError(f"not an INT: {text!r}")
    return int(text)


_BLADE_RE = re.compile(r"^e\[([0-9]+(?:,[0-9]+)*)?\]$")


def parse_blade(text: str) -> Blade:
    """Parse ``e[]`` or ``e[i1,i2,...]`` with strictly ascending indices."""
    m = _BLADE_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed blade {text!r}; expected e[] or e[i1,i2,...]")
    if not m.group(1):
        return 0
    indices = [int(s) for s in m.group(1).split(",")]
    if any(i < 1 for i in indices):
        raise ValueError(f"blade indices must be >= 1 in {text!r}")
    return blade_from_indices(indices)


def format_blade(blade: Blade) -> str:
    return "e[" + ",".join(str(i) for i in blade_indices(blade)) + "]"


def blade_sort_key(blade: Blade) -> Tuple[int, Tuple[int, ...]]:
    """Global enumeration order: by grade, then lexicographic index list."""
    return (blade_grade(blade), blade_indices(blade))


class BladeTable(NamedTuple):
    """The 2^n blades over n generators in the global enumeration order."""

    order: Tuple[Blade, ...]
    rank: Tuple[int, ...]  # rank[b] is the position of blade b in order


@functools.lru_cache(maxsize=None)
def blade_table(n: int) -> BladeTable:
    """The global order of the n-generator blades, built on first use per n.

    The order is that of ``blade_sort_key``.  It is built one generator at
    a time, each new one taking index 1 and moving the others up by one.
    Within a grade, the index lists that hold the new index 1 come first,
    and each of the two halves keeps the order built before.
    """
    if n > MAX_DIM:
        raise ValueError(f"blade tables limited to n <= {MAX_DIM}, got n = {n}")
    # Imported on first use, not at the top of this module: from there numpy
    # loads ahead of the package's other modules and, when those are compiled
    # from source, a benchmark process peaks about 1.2 MiB higher.
    import numpy as np

    # runs[k]: the grade-k blades over the generators added so far, in order
    runs = [np.zeros(1, dtype=np.int64)]
    for _ in range(n):
        up = [2 * run for run in runs]  # every index moves up by one
        # grade k: the blades that hold the new index 1, then those without it
        runs = [up[0],
                *(np.concatenate((up[k - 1] + 1, up[k])) for k in range(1, len(up))),
                up[-1] + 1]
    order = np.concatenate(runs).tolist()
    rank = [0] * len(order)
    for position, blade in enumerate(order):
        rank[blade] = position
    return BladeTable(tuple(order), tuple(rank))


def all_blades(sig: Signature) -> Iterator[Blade]:
    """All 2^n blades of the algebra in the global enumeration order."""
    return iter(blade_table(sig.n).order)


@functools.lru_cache(maxsize=None)
def _byte_indices(first: int) -> Tuple[Tuple[int, ...], ...]:
    """Index tuples of the 256 blades over generators first+1..first+8."""
    return tuple(tuple(first + i for i in blade_indices(x)) for x in range(256))


def index_lists(blades: Iterable[Blade]) -> List[List[int]]:
    """``blade_indices`` of each blade as a list, from two 256-entry tables.

    Covers every blade of every signature: masks stay below 2^MAX_DIM = 2^16.
    """
    low, high = _byte_indices(0), _byte_indices(8)
    return [list(low[b & 255] + high[b >> 8]) for b in blades]


@functools.lru_cache(maxsize=None)
def _byte_texts() -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """JSON text of each byte's indices: ``"[" + low``, then ``high + "]"``
    when the low byte is empty and ``", " + high + "]"`` when it is not."""
    low, high = ([", ".join(map(str, ix)) for ix in _byte_indices(first)]
                 for first in (0, 8))
    return (tuple("[" + text for text in low),
            tuple(text + "]" for text in high),
            tuple(", " + text + "]" if text else "]" for text in high))


def index_lists_json(blades: Iterable[Blade]) -> str:
    """``json.dumps(index_lists(blades))``, joined from 256-entry text tables.

    The text is built once per process for each tuple of blades, on a
    private name below this one, so a wrapper or patch here sees every call.
    """
    return _blades_json(tuple(blades))


@functools.lru_cache(maxsize=None)
def _blades_json(blades: Tuple[Blade, ...]) -> str:
    low, alone, after = _byte_texts()
    return "[" + ", ".join([low[b & 255] + (after if b & 255 else alone)[b >> 8]
                            for b in blades]) + "]"
