"""Sparse multivectors with exact rational coefficients.

A multivector is a map from basis blades to nonzero exact rationals (int or
Fraction), never float.  The public constructors store Fractions and
refuse any other coefficient type; the nullspace oracle's private probe
holds ints, which stay exact under products.  Every verification
in this package reduces to exact identities between such maps, so no
floating point appears anywhere.

Inverses, and so the adjoint actions, are this package's one caller of
``_linalg``: they solve T X = 1 on the left-regular matrix by exact
elimination.  The nullspace oracle needs none, as its system is diagonal.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import _linalg
from .blades import (
    Blade,
    Signature,
    all_blades,
    blade_grade,
    blade_product,
    blade_table,
    check_blade,
    format_blade,
    hat_sign,
    tilde_sign,
)

Rational = Union[int, Fraction]


def _exact(value: Rational) -> Fraction:
    """``value`` as a Fraction; a float (or anything but int and Fraction)
    is refused, since ``Fraction(0.1)`` is the binary float's value, not 1/10."""
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficient {value!r} is not an int or Fraction")
    return Fraction(value)


class Multivector:
    """Element of Cl(p,q,r) as a sparse blade -> exact rational map.

    Instances are immutable; arithmetic returns new objects.  Zero
    coefficients are never stored, so equality is plain dict equality.
    """

    __slots__ = ("signature", "_terms")

    def __init__(self, signature: Signature, terms: Dict[Blade, Rational]):
        self.signature = signature
        self._terms = terms

    # -- construction ------------------------------------------------------

    @classmethod
    def from_terms(cls, sig: Signature,
                   terms: Iterable[Tuple[Blade, Rational]]) -> "Multivector":
        acc: Dict[Blade, Fraction] = {}
        for blade, coeff in terms:
            check_blade(sig, blade)
            c = acc.get(blade, 0) + _exact(coeff)
            if c:
                acc[blade] = c
            else:
                acc.pop(blade, None)
        return cls(sig, acc)

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, {})

    @classmethod
    def scalar(cls, sig: Signature, value: Rational) -> "Multivector":
        return cls.from_terms(sig, [(0, value)])

    @classmethod
    def basis_blade(cls, sig: Signature, blade: Blade) -> "Multivector":
        check_blade(sig, blade)
        return cls(sig, {blade: Fraction(1)})

    # -- inspection --------------------------------------------------------

    def coeff(self, blade: Blade) -> Fraction:
        return self._terms.get(blade, Fraction(0))

    def blades(self) -> Tuple[Blade, ...]:
        return tuple(self._terms)

    def terms(self) -> Dict[Blade, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.signature, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Multivector({self.signature}, {self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        rank = blade_table(self.signature.n).rank
        for blade in sorted(self._terms, key=rank.__getitem__):
            c = self._terms[blade]
            parts.append(f"{c}*{format_blade(blade)}")
        return " + ".join(parts)

    # -- linear structure ----------------------------------------------------

    def _require_same_signature(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise ValueError(
                f"signature mismatch: {self.signature} vs {other.signature}")

    def _combine(self, other: "Multivector", op) -> "Multivector":
        """Termwise ``op(self, other)`` for op in {operator.add, operator.sub}."""
        self._require_same_signature(other)
        acc = dict(self._terms)
        for blade, coeff in other._terms.items():
            c = op(acc.get(blade, 0), coeff)
            if c:
                acc[blade] = c
            else:
                del acc[blade]
        return Multivector(self.signature, acc)

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._combine(other, operator.sub)

    def scale(self, c: Rational) -> "Multivector":
        c = _exact(c)
        if not c:
            return Multivector(self.signature, {})
        return Multivector(self.signature,
                           {b: c * v for b, v in self._terms.items()})

    def __neg__(self) -> "Multivector":
        return self.scale(-1)

    # -- products and involutions ---------------------------------------------

    def __mul__(self, other: "Multivector") -> "Multivector":
        self._require_same_signature(other)
        sig = self.signature
        acc: Dict[Blade, Rational] = {}
        for a, ca in self._terms.items():
            for b, cb in other._terms.items():
                sign, blade = blade_product(sig, a, b)
                if sign == 0:
                    continue
                c = acc.get(blade, 0) + sign * ca * cb
                if c:
                    acc[blade] = c
                else:
                    del acc[blade]
        return Multivector(sig, acc)

    def grade_project(self, k: int) -> "Multivector":
        return Multivector(self.signature, {
            b: v for b, v in self._terms.items() if blade_grade(b) == k})

    def parity_project(self, l: int) -> "Multivector":
        if l not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {l}")
        return Multivector(self.signature, {
            b: v for b, v in self._terms.items() if blade_grade(b) & 1 == l})

    def grade_involute(self) -> "Multivector":
        return Multivector(self.signature, {
            b: v if hat_sign(b) == 1 else -v for b, v in self._terms.items()})

    def reverse(self) -> "Multivector":
        return Multivector(self.signature, {
            b: v if tilde_sign(b) == 1 else -v for b, v in self._terms.items()})


# -- spec-named operation layer ------------------------------------------------

mv_from_terms = Multivector.from_terms
geometric_product = Multivector.__mul__
mv_add = Multivector.__add__
grade_project = Multivector.grade_project
parity_project = Multivector.parity_project
grade_involute = Multivector.grade_involute
reverse = Multivector.reverse


def mv_scale(c: Rational, u: Multivector) -> Multivector:
    return u.scale(c)


def commutator(u: Multivector, v: Multivector) -> Multivector:
    """UV - VU."""
    return u * v - v * u


# -- regular representation and inverses ---------------------------------------

def _regular_columns(t: Multivector) -> List[Dict[int, Fraction]]:
    """Column j of U -> T*U in the global blade order: the coefficients of
    T * blade_j, keyed by row position."""
    sig = t.signature
    order, position = blade_table(sig.n)
    return [{position[b]: v for b, v in
             (t * Multivector.basis_blade(sig, blade))._terms.items()}
            for blade in order]


def left_regular_matrix(t: Multivector) -> List[List[Fraction]]:
    """Dense 2^n x 2^n matrix of U -> T*U in the global blade order."""
    columns = _regular_columns(t)
    matrix = [[Fraction(0)] * len(columns) for _ in columns]
    for j, column in enumerate(columns):
        for i, v in column.items():
            matrix[i][j] = v
    return matrix


def _inverse_coeffs(t: Multivector) -> Optional[List[Fraction]]:
    """Solve T*X = 1; None when T is singular.

    A solution of T*X = 1 in a finite-dimensional associative algebra forces
    the left-regular matrix of T to be surjective, hence invertible, so X is
    the two-sided inverse.  The scalar blade is first in the global order,
    so the right-hand side is row 0.
    """
    return _linalg.solve(_regular_columns(t), {0: Fraction(1)})


def is_invertible(t: Multivector) -> bool:
    return _inverse_coeffs(t) is not None


def inverse_of(t: Multivector) -> Multivector:
    coeffs = _inverse_coeffs(t)
    if coeffs is None:
        raise ZeroDivisionError(f"multivector is not invertible: {t}")
    return Multivector.from_terms(t.signature, zip(all_blades(t.signature), coeffs))


# -- adjoint actions ------------------------------------------------------------

def adjoint(t: Multivector, u: Multivector) -> Multivector:
    """ad_T(U) = T U T^-1."""
    return t * u * inverse_of(t)


def adjoint_hat(t: Multivector, u: Multivector) -> Multivector:
    """Grade-involution twist: hat(T) U T^-1."""
    return t.grade_involute() * u * inverse_of(t)


def adjoint_tilde(t: Multivector, u: Multivector) -> Multivector:
    """Parity-mixing twist: T <U>_0 T^-1 + hat(T) <U>_1 T^-1."""
    t_inv = inverse_of(t)
    return (t * u.parity_project(0) * t_inv
            + t.grade_involute() * u.parity_project(1) * t_inv)
