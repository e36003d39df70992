"""Multivector arithmetic over exact rationals."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliffcent.blades import all_blades, blade_from_indices, make_signature
from cliffcent.multivector import (
    Multivector,
    _regular_columns,
    adjoint,
    adjoint_hat,
    adjoint_tilde,
    geometric_product,
    grade_involute,
    grade_project,
    inverse_of,
    is_invertible,
    mv_from_terms,
    parity_project,
    reverse,
)

SIG = make_signature(1, 1, 1)


def mv(*terms):
    return mv_from_terms(SIG, [(blade_from_indices(ix), Fraction(c))
                               for ix, c in terms])


signatures = st.sampled_from([
    make_signature(2, 0, 0), make_signature(1, 1, 1),
    make_signature(0, 2, 1), make_signature(2, 1, 2),
    make_signature(1, 0, 3),
])
coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)


@st.composite
def multivectors(draw, sig=None):
    signature = sig if sig is not None else draw(signatures)
    blades = list(all_blades(signature))
    terms = draw(st.lists(
        st.tuples(st.sampled_from(blades), coeffs), max_size=5))
    return mv_from_terms(signature, terms)


class TestConstruction:
    def test_canonicalizes_and_drops_zeros(self):
        u = mv(((1,), 2), ((1,), -2), ((2,), 3))
        assert u.blades() == (blade_from_indices((2,)),)
        assert u.coeff(blade_from_indices((1,))) == 0

    def test_zero_and_scalar(self):
        assert Multivector.zero(SIG).is_zero()
        assert Multivector.scalar(SIG, Fraction(5)).coeff(0) == 5

    def test_str(self):
        u = mv(((), 1), ((1, 2), -2))
        assert str(u) == "1*e[] + -2*e[1,2]"
        assert str(Multivector.zero(SIG)) == "0"

    def test_rejects_foreign_blades(self):
        with pytest.raises(ValueError):
            mv_from_terms(SIG, [(1 << 5, Fraction(1))])

    def test_int_inputs_give_fraction_coefficients(self):
        e1, e12, e3 = (blade_from_indices(ix) for ix in ((1,), (1, 2), (3,)))
        u = mv_from_terms(SIG, [(0, 2), (e1, 1), (e12, -3)])
        v = mv_from_terms(SIG, [(e1, 1), (e3, 4), (e12, -3)])
        results = [u, v, u + v, u - v, v - u, u * v, v * u,
                   Multivector.scalar(SIG, 5), Multivector.basis_blade(SIG, e1)]
        for w in results:
            assert not w.is_zero()
            assert all(type(c) is Fraction for c in w.terms().values()), w

    def test_basis_blade_is_one_fraction_term(self):
        for blade in all_blades(SIG):
            u = Multivector.basis_blade(SIG, blade)
            assert u.terms() == {blade: 1}
            assert type(u.coeff(blade)) is Fraction

    @pytest.mark.parametrize("blade", [1 << SIG.n, -1])
    def test_basis_blade_rejects_out_of_range_blade(self, blade):
        for build in (lambda: Multivector.basis_blade(SIG, blade),
                      lambda: Multivector.scalar(SIG, 1).coeff(blade)):
            with pytest.raises(ValueError, match=f"blade {blade:#x} not valid"):
                build()

    @pytest.mark.parametrize("build", [
        lambda value: Multivector.basis_blade(SIG, value),
        lambda value: mv_from_terms(SIG, [(value, 1)]),
        lambda value: Multivector.scalar(SIG, 1).coeff(value),
    ])
    @pytest.mark.parametrize("value", [0.5, 1.0, "3", None, True, np.int64(3)])
    def test_rejects_non_int_blades(self, build, value):
        # a float or bool key would pass the range check, break str() and
        # read the coefficient of the int blade it equals
        with pytest.raises(ValueError,
                           match=re.escape(f"blade {value!r} is not an int mask")):
            build(value)

    @pytest.mark.parametrize("build", [
        lambda value: mv_from_terms(SIG, [(0, value)]),
        lambda value: Multivector.scalar(SIG, value),
        lambda value: Multivector.basis_blade(SIG, 1).scale(value),
        lambda value: Multivector.zero(SIG).scale(value),
    ])
    @pytest.mark.parametrize("value", [0.1, 1e-300, 0.5, 2.0, 0.0, "1/2", True, False])
    def test_rejects_inexact_coefficients(self, build, value):
        # Fraction(0.1) would store 3602879701896397/36028797018963968, and
        # a bool is refused as blades and masks refuse it (True would be 1)
        with pytest.raises(ValueError, match=f"coefficient {value!r} is not"):
            build(value)


class TestArithmetic:
    def test_product_hand_checked(self):
        # (e1 + e2)(e1 - e2) = e1^2 - e2^2 + e2 e1 - e1 e2 = 1+1 - 2 e12
        u = mv(((1,), 1), ((2,), 1))
        v = mv(((1,), 1), ((2,), -1))
        w = u * v
        assert w == mv(((), 2), ((1, 2), -2))

    def test_degenerate_square(self):
        u = mv(((3,), 1), ((), 1))   # 1 + e3, e3 degenerate
        assert u * u == mv(((), 1), ((3,), 2))

    def test_module_level_ops_agree_with_methods(self):
        u, v = mv(((1,), 2)), mv(((2,), 3), ((), 1))
        assert geometric_product(u, v) == u * v

    def test_commutator(self):
        # distinct generators anticommute, so [e1, e2] = 2 e12
        u, v = mv(((1,), 1)), mv(((2,), 1))
        assert u * v - v * u == mv(((1, 2), 2))
        assert (u * u - u * u).is_zero()

    @given(multivectors(sig=SIG), multivectors(sig=SIG), multivectors(sig=SIG))
    @settings(max_examples=60)
    def test_distributive(self, u, v, w):
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w


class TestProjections:
    def test_grade_project(self):
        u = mv(((), 1), ((1,), 2), ((1, 2), 3))
        assert grade_project(u, 1) == mv(((1,), 2))
        assert grade_project(u, 3).is_zero()

    def test_parity_project(self):
        u = mv(((), 1), ((1,), 2), ((1, 2), 3))
        assert parity_project(u, 0) == mv(((), 1), ((1, 2), 3))
        assert parity_project(u, 1) == mv(((1,), 2))

    def test_involutes(self):
        u = mv(((1,), 1), ((1, 2), 1), ((1, 2, 3), 1))
        assert grade_involute(u) == mv(((1,), -1), ((1, 2), 1), ((1, 2, 3), -1))
        assert reverse(u) == mv(((1,), 1), ((1, 2), -1), ((1, 2, 3), -1))


class TestAlgebraLaws:
    @given(st.data())
    @settings(max_examples=80)
    def test_associativity(self, data):
        sig = data.draw(signatures)
        u = data.draw(multivectors(sig=sig))
        v = data.draw(multivectors(sig=sig))
        w = data.draw(multivectors(sig=sig))
        assert (u * v) * w == u * (v * w)

    @given(st.data())
    @settings(max_examples=80)
    def test_involution_antihomomorphisms(self, data):
        sig = data.draw(signatures)
        u = data.draw(multivectors(sig=sig))
        v = data.draw(multivectors(sig=sig))
        assert grade_involute(u * v) == grade_involute(u) * grade_involute(v)
        assert reverse(u * v) == reverse(v) * reverse(u)

    @given(st.data())
    @settings(max_examples=40)
    def test_involutions_are_involutions(self, data):
        u = data.draw(multivectors())
        assert grade_involute(grade_involute(u)) == u
        assert reverse(reverse(u)) == u


class TestRegularRepresentation:
    def test_columns_are_images_of_basis(self):
        sig = make_signature(1, 0, 1)
        t = mv_from_terms(sig, [(blade_from_indices((1,)), Fraction(2)),
                                (0, Fraction(1))])
        order = list(all_blades(sig))
        columns = _regular_columns(t)
        assert len(columns) == len(order)
        for column, b in zip(columns, order):
            image = t * Multivector.basis_blade(sig, b)
            for i, row_blade in enumerate(order):
                assert column.get(i, 0) == image.coeff(row_blade)

    def test_identity_matrix(self):
        one = Multivector.scalar(SIG, Fraction(1))
        assert _regular_columns(one) == [{j: 1} for j in range(1 << SIG.n)]


class TestInverses:
    def test_simple_inverse(self):
        u = mv(((1,), 1))      # e1^2 = 1
        assert inverse_of(u) == u
        v = mv(((2,), 1))      # e2^2 = -1
        assert inverse_of(v) == mv(((2,), -1))

    def test_degenerate_blade_not_invertible(self):
        u = mv(((3,), 1))
        assert not is_invertible(u)
        with pytest.raises(ZeroDivisionError):
            inverse_of(u)

    def test_unipotent_inverse(self):
        u = mv(((), 1), ((3,), 1))   # 1 + nilpotent
        assert inverse_of(u) == mv(((), 1), ((3,), -1))

    def test_zero_not_invertible(self):
        assert not is_invertible(Multivector.zero(SIG))

    def test_random_round_trips(self):
        rng = random.Random(20240817)
        sigs = [make_signature(2, 0, 0), make_signature(1, 1, 1),
                make_signature(2, 1, 1), make_signature(0, 2, 2)]
        done = 0
        while done < 30:
            sig = rng.choice(sigs)
            blades = list(all_blades(sig))
            terms = [(b, Fraction(rng.randint(-3, 3)))
                     for b in rng.sample(blades, k=min(4, len(blades)))]
            u = mv_from_terms(sig, terms)
            if not is_invertible(u):
                continue
            inv = inverse_of(u)
            one = Multivector.scalar(sig, Fraction(1))
            assert u * inv == one
            assert inv * u == one
            done += 1


class TestAdjoints:
    def test_adjoint_conjugates(self):
        sig = make_signature(2, 0, 0)
        t = mv_from_terms(sig, [(blade_from_indices((1,)), Fraction(1))])
        u = mv_from_terms(sig, [(blade_from_indices((2,)), Fraction(1))])
        # e1 e2 e1^{-1} = -e2
        assert adjoint(t, u) == mv_from_terms(
            sig, [(blade_from_indices((2,)), Fraction(-1))])

    def test_twisted_adjoints_on_parities(self):
        sig = make_signature(2, 0, 1)
        t = mv_from_terms(sig, [(blade_from_indices((1,)), Fraction(1))])
        even = mv_from_terms(sig, [(blade_from_indices((1, 2)), Fraction(1))])
        odd = mv_from_terms(sig, [(blade_from_indices((2,)), Fraction(1))])
        # hat(e1) = -e1 flips the plain conjugation on any argument
        assert adjoint_hat(t, odd) == -adjoint(t, odd)
        assert adjoint_hat(t, even) == -adjoint(t, even)
        # the mixed map conjugates even parts plainly, odd parts twisted
        u = even + odd
        assert adjoint_tilde(t, u) == adjoint(t, even) + adjoint_hat(t, odd)
