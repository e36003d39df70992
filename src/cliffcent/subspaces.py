"""Blade-spanned subspaces of Cl(p,q,r) and a small textual spec language.

Every subspace handled here is the span of a set of basis blades.  Blades
are the elements of (Z/2)^n, so the data model is (signature, mask): one
2^n-bit int whose bit b is set when blade b is in the span.  Unions,
intersections, parity parts and comparisons are single int operations.
Cl(p,q,r) is Cl(p,q,0) tensor Lambda(R^r), and the r degenerate
generators are the top bits of a blade, so every graded piece is one
split-grade mask: the blades whose grade over generators 1..split lies in
one set and whose grade over the rest lies in another, cached per
(n, split, grade sets).  The range conventions make the closed-form
constructors total:

* grades of the full algebra live in [0, n]; anything outside is empty;
* grades of the degenerate exterior subalgebra live in [0, r];
* a lower bound <= 0 means "from the bottom", an upper bound >= the top
  means "to the top", and an empty range is the zero subspace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .blades import (
    MAX_DIM,
    Blade,
    Signature,
    blade_table,
    check_blade,
    format_blade,
    hat_sign,
    parse_int,
    tilde_sign,
)


def _unpack(mask: int, size: int):
    """The low ``size`` bits of ``mask`` as a 0/1 uint8 array; the one way
    from a mask to its blades.  numpy is imported on first use, as in
    ``blades.blade_table``."""
    import numpy as np

    data = np.frombuffer(mask.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=size, bitorder="little")


def _pack(indicator) -> int:
    """The int whose bit b is set when ``indicator[b]`` is nonzero."""
    import numpy as np

    return int.from_bytes(np.packbits(indicator, bitorder="little").tobytes(),
                          "little")


@functools.lru_cache(maxsize=None)
def _order_array(n: int):
    """``blade_table(n).order`` as a read-only numpy array, since every
    caller with this n shares it."""
    import numpy as np

    order = np.array(blade_table(n).order)
    order.flags.writeable = False
    return order


@dataclass(frozen=True, repr=False)
class Subspace:
    """A blade-spanned linear subspace: bit b of ``mask`` is set when blade
    b spans it.  The zero subspace has mask 0."""

    signature: Signature
    mask: int

    def __repr__(self) -> str:
        # hex: decimal conversion of an int above 4,300 digits (n >= 14) raises
        return f"Subspace({self.signature}, {self.mask:#x})"

    def __post_init__(self):
        if type(self.mask) is not int:
            raise ValueError(f"mask {self.mask!r} is not an int")
        if self.mask < 0 or self.mask.bit_length() > 1 << self.signature.n:
            raise ValueError(f"mask {self.mask:#x} not valid for {self.signature}")

    @classmethod
    def from_blades(cls, sig: Signature, blades: Iterable[Blade]) -> "Subspace":
        """The span of the given blades; each must be a blade of ``sig``."""
        blades = list(blades)
        for blade in blades:
            check_blade(sig, blade)
        import numpy as np

        indicator = np.zeros(max(blades, default=-1) + 1, dtype=bool)
        indicator[np.array(blades, dtype=np.intp)] = True
        return cls(sig, _pack(indicator))

    @property
    def blades(self) -> frozenset:
        """The blades as a set, read off the mask."""
        import numpy as np

        bits = _unpack(self.mask, 1 << self.signature.n)
        return frozenset(np.flatnonzero(bits).tolist())

    def sorted_blades(self) -> Tuple[Blade, ...]:
        """The blades in the global enumeration order."""
        return _sorted_blades(self.signature.n, self.mask)

    def names(self) -> List[str]:
        """The blades as text, in the global enumeration order."""
        return [format_blade(b) for b in self.sorted_blades()]

    def dimension(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, blade: Blade) -> bool:
        return type(blade) is int and blade >= 0 and bool(self.mask >> blade & 1)

    def __str__(self) -> str:
        return ", ".join(self.names()) or "{0}"


@functools.lru_cache(maxsize=None)
def _sorted_blades(n: int, mask: int) -> Tuple[Blade, ...]:
    """The set bits of ``mask`` in the global enumeration order of n
    generators, built once per (n, mask)."""
    order = _order_array(n)
    return tuple(order[_unpack(mask, 1 << n)[order] == 1].tolist())


@functools.lru_cache(maxsize=None)
def _grade_mask(n: int, split: int, low: Tuple[int, ...],
                high: Tuple[int, ...]) -> int:
    """Mask of the blades whose grade over generators 1..split is in ``low``
    and whose grade over generators split+1..n is in ``high``.

    Blade b is (b >> split) * 2^split + (b & (2^split - 1)), so the
    indicator, read as a 2^(n-split) x 2^split matrix, is an outer product;
    an empty grade set on either side gives the zero mask without building it.
    The grades in ``low`` lie in [0, split] and those in ``high`` in
    [0, n - split]; every caller clamps them.
    """
    if n > MAX_DIM:
        raise ValueError(f"graded masks limited to n <= {MAX_DIM}, got n = {n}")
    if not low or not high:
        return 0
    import numpy as np

    def graded(width, grades):
        wanted = np.zeros(width + 1, dtype=bool)
        wanted[list(grades)] = True
        return wanted[np.bitwise_count(np.arange(1 << width))]

    return _pack(np.outer(graded(n - split, high), graded(split, low)).ravel())


def _grades(lo: int, hi: int, top: int) -> Tuple[int, ...]:
    """The grades in [lo, hi], clamped to [0, top]."""
    return tuple(range(max(lo, 0), min(hi, top) + 1))


def _parity_mask(n: int, l: int) -> int:
    if l not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {l}")
    return _grade_mask(n, 0, (0,), tuple(range(l, n + 1, 2)))


def full_algebra(sig: Signature) -> Subspace:
    return grade_range(sig, 0, sig.n)


def grade_range(sig: Signature, lo: int, hi: int) -> Subspace:
    return Subspace(sig, _grade_mask(sig.n, 0, (0,), _grades(lo, hi, sig.n)))


def grade_subspace(sig: Signature, k: int) -> Subspace:
    """Cl^k: all blades of grade k; empty outside [0, n]."""
    return grade_range(sig, k, k)


def nondeg_times_lambda(sig: Signature, k: int, lo: int, hi: int) -> Subspace:
    """Cl^k_{p,q,0} Lambda^{[lo, hi]}: grade k over the non-degenerate
    generators times a grade in [lo, hi] over the degenerate ones."""
    nondeg = sig.p + sig.q
    return Subspace(sig, _grade_mask(sig.n, nondeg, _grades(k, k, nondeg),
                                     _grades(lo, hi, sig.r)))


def lambda_subspace(sig: Signature, l: int) -> Subspace:
    """Lambda^l: grade-l blades over the degenerate generators only."""
    return nondeg_times_lambda(sig, 0, l, l)


def lambda_range(sig: Signature, lo: int, hi: int) -> Subspace:
    return nondeg_times_lambda(sig, 0, lo, hi)


def lambda_full(sig: Signature) -> Subspace:
    return lambda_range(sig, 0, sig.r)


def nondeg_grade_subspace(sig: Signature, k: int) -> Subspace:
    """Cl^k_{p,q,0}: grade-k blades over the non-degenerate generators."""
    return nondeg_times_lambda(sig, k, 0, 0)


def parity_subspace(sig: Signature, l: int) -> Subspace:
    """Cl^(0) (l=0) or Cl^(1) (l=1)."""
    return Subspace(sig, _parity_mask(sig.n, l))


def parity_part(s: Subspace, l: int) -> Subspace:
    return Subspace(s.signature, s.mask & _parity_mask(s.signature.n, l))


def lambda_even(sig: Signature) -> Subspace:
    """Lambda^(0): the even part of the degenerate exterior subalgebra."""
    return Subspace(sig, _grade_mask(sig.n, sig.p + sig.q, (0,),
                                     tuple(range(0, sig.r + 1, 2))))


def quaternion_type_subspace(sig: Signature, m: int) -> Subspace:
    """Blades whose hat and tilde signs match quaternion type m.

    Built from the two sign conditions, not from the grade mod 4 shortcut;
    the equivalence of the two descriptions is asserted by the test suite.
    Both signs depend on the grade alone, so each grade is tested once, on
    its first blade, and kept or dropped whole.
    """
    if m not in (0, 1, 2, 3):
        raise ValueError(f"quaternion type must be in 0..3, got {m}")
    return Subspace(sig, _grade_mask(sig.n, 0, (0,), _qt_grades(sig.n, m)))


@functools.lru_cache(maxsize=None)
def _qt_grades(n: int, m: int) -> Tuple[int, ...]:
    """The grades k in [0, n] whose hat and tilde signs match type m."""
    want_hat = -1 if m & 1 else 1
    want_tilde = -1 if (m * (m - 1) // 2) & 1 else 1
    grades = []
    for k in range(n + 1):
        first = (1 << k) - 1  # the first blade of grade k
        if hat_sign(first) == want_hat and tilde_sign(first) == want_tilde:
            grades.append(k)
    return tuple(grades)


def direct_sum(parts: Sequence[Subspace]) -> Subspace:
    """Union of pairwise disjoint blade sets; overlap is an error."""
    if not parts:
        raise ValueError("direct_sum of no subspaces has no signature")
    sig = parts[0].signature
    acc = 0
    for part in parts:
        if part.signature != sig:
            raise ValueError("signature mismatch in direct_sum")
        overlap = acc & part.mask
        if overlap:
            sample = format_blade((overlap & -overlap).bit_length() - 1)
            raise ValueError(f"direct_sum operands overlap (e.g. {sample})")
        acc |= part.mask
    return Subspace(sig, acc)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    if a.signature != b.signature:
        raise ValueError("signature mismatch in intersect")
    return Subspace(a.signature, a.mask & b.mask)


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

    def __post_init__(self):
        # list atoms would make the spec unhashable, and a non-str text
        # would make str(spec) raise
        if not (isinstance(self.atoms, tuple)
                and all(isinstance(atom, tuple) for atom in self.atoms)):
            raise ValueError(
                f"spec atoms must be a tuple of tuples, got {self.atoms!r}")
        if not isinstance(self.text, str):
            raise ValueError(f"spec text must be a str, got {self.text!r}")

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
    if not isinstance(sig, Signature):
        raise ValueError(f"signature must be a Signature, got {sig!r}")
    if not isinstance(spec, SubspaceSpec):
        raise ValueError(f"spec must be a SubspaceSpec, got {spec!r}")
    return direct_sum([_evaluate_atom(sig, atom) for atom in spec.atoms])


def subspace_from_text(sig: Signature, text: str) -> Subspace:
    return evaluate_spec(sig, parse_subspace_spec(text))
