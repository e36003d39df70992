"""Blade-level arithmetic: products, signs, involutions, parsing."""

import dataclasses
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cliffcent
from cliffcent import blades
from cliffcent.blades import (
    MAX_DIM,
    CommuteClass,
    ScaledBlade,
    Signature,
    all_blades,
    blade_from_indices,
    blade_grade,
    blade_indices,
    blade_product,
    blade_sort_key,
    blade_table,
    commute_class,
    format_blade,
    hat_sign,
    index_lists,
    index_lists_json,
    make_signature,
    parse_blade,
    parse_int,
    tilde_sign,
)


class TestSignature:
    def test_fields(self):
        sig = make_signature(2, 1, 3)
        assert (sig.p, sig.q, sig.r) == (2, 1, 3)
        assert sig.n == 6
        assert str(sig) == "Cl(2,1,3)"

    def test_metric_signs(self):
        # the metric sign of generator e_i is the sign of its square
        sig = make_signature(1, 2, 1)
        squares = [blade_product(sig, 1 << (i - 1), 1 << (i - 1)) for i in range(1, 5)]
        assert squares == [(1, 0), (-1, 0), (-1, 0), (0, 0)]

    def test_masks(self):
        sig = make_signature(1, 1, 2)
        assert sig.negative_mask == 0b0010
        assert sig.degenerate_mask == 0b1100
        assert sig.full_mask == 0b1111

    def test_derived_values_match_their_formulas(self):
        triples = [(p, q, n - p - q) for n in range(1, MAX_DIM + 1)
                   for p in range(n + 1) for q in range(n - p + 1)]
        assert len(triples) == 968
        for p, q, r in triples:
            sig = Signature(p, q, r)
            n = p + q + r
            assert sig.n == n
            assert sig.negative_mask == sum(1 << i for i in range(p, p + q))
            assert sig.degenerate_mask == sum(1 << i for i in range(p + q, n))
            assert sig.full_mask == 2 ** n - 1
            assert hash(sig) == hash((p, q, r))

    def test_repr_and_equality_see_only_p_q_r(self):
        sig = Signature(2, 1, 3)
        assert repr(sig) == "Signature(p=2, q=1, r=3)"
        assert Signature.__match_args__ == ("p", "q", "r")
        assert sig == Signature(2, 1, 3) and sig != Signature(2, 3, 1)

    def test_pickle_and_replace_rebuild_the_derived_values(self):
        sig = Signature(2, 1, 3)
        for copy in (pickle.loads(pickle.dumps(sig)),
                     dataclasses.replace(Signature(1, 1, 1), p=2, r=3)):
            assert copy == sig and hash(copy) == hash(sig)
            assert ((copy.n, copy.negative_mask, copy.degenerate_mask, copy.full_mask)
                    == (6, 0b000100, 0b111000, 0b111111))

    def test_derived_values_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Signature(1, 0, 0).n = 3

    def test_direct_construction_is_not_bounded(self):
        # make_signature checks the bound; the bound tests build past it
        assert Signature(0, 0, MAX_DIM + 1).full_mask == 2 ** (MAX_DIM + 1) - 1

    @pytest.mark.parametrize("bad", [(-1, 0, 1), (0, 0, 0), (17, 0, 0), (8, 8, 1),
                                     (True, 0, 0), (1, 0, False)])
    def test_rejects_bad_triples(self, bad):
        with pytest.raises(ValueError):
            make_signature(*bad)


class TestBladeBasics:
    def test_indices_round_trip(self):
        b = blade_from_indices((1, 3, 4))
        assert blade_indices(b) == (1, 3, 4)
        assert blade_grade(b) == 3

    def test_from_indices_requires_ascending(self):
        with pytest.raises(ValueError):
            blade_from_indices((3, 1))
        with pytest.raises(ValueError):
            blade_from_indices((2, 2))

    def test_enumeration_is_grade_major(self):
        sig = make_signature(2, 0, 1)
        order = list(all_blades(sig))
        assert order[0] == 0
        grades = [blade_grade(b) for b in order]
        assert grades == sorted(grades)
        # within a grade, index tuples ascend lexicographically
        assert [blade_indices(b) for b in order[1:4]] == [(1,), (2,), (3,)]
        assert [blade_indices(b) for b in order[4:7]] == [(1, 2), (1, 3), (2, 3)]

    def test_sort_key_matches_enumeration(self):
        sig = make_signature(1, 1, 1)
        order = list(all_blades(sig))
        assert sorted(order, key=blade_sort_key) == order

    @pytest.mark.parametrize("fn", [blade_indices, format_blade, blade_sort_key])
    def test_negative_mask_is_rejected(self, fn):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            fn(-1)


class TestBladeTable:
    @pytest.mark.parametrize("n", range(13))
    def test_matches_its_definition(self, n):
        order, rank = blade_table(n)
        assert list(order) == sorted(range(1 << n), key=blade_sort_key)
        assert [rank[b] for b in order] == list(range(1 << n))

    def test_index_lists_match_blade_indices(self):
        masks = range(1 << MAX_DIM)
        assert index_lists(masks) == [list(blade_indices(b)) for b in masks]

    def test_index_lists_json_is_json_dumps(self):
        for masks in ((), *(blade_table(n).order for n in (*range(11), MAX_DIM))):
            assert index_lists_json(masks) == json.dumps(index_lists(masks))

    def test_import_builds_no_table(self):
        src = Path(cliffcent.__file__).resolve().parent.parent
        check = ("import cliffcent\n"
                 "from cliffcent.blades import blade_table\n"
                 "assert blade_table.cache_info().currsize == 0\n")
        subprocess.run([sys.executable, "-c", check], check=True,
                       env=dict(os.environ, PYTHONPATH=str(src)))


class TestBladeText:
    """``index_lists_json`` reads its text from a per-process cache keyed on
    the tuple of blades, ``blades._blades_json``."""

    @staticmethod
    def blade_sets():
        """The sorted blades of every mask with n <= 3, then of 50 seeded
        masks for each n in 4..16: half dense, half with at most 32 blades."""
        for n in range(1, 4):
            order = blade_table(n).order
            for mask in range(1 << (1 << n)):
                yield tuple(b for b in order if mask >> b & 1)
        rng = random.Random(23)
        for n in range(4, MAX_DIM + 1):
            order = blade_table(n).order
            for i in range(50):
                if i % 2:
                    chosen = set(rng.sample(order, rng.randint(0, min(len(order), 32))))
                    yield tuple(b for b in order if b in chosen)
                else:
                    yield tuple(b for b in order if rng.getrandbits(1))

    def test_cached_text_is_json_dumps(self):
        blades._blades_json.cache_clear()
        try:
            for chosen in self.blade_sets():
                want = json.dumps(index_lists(chosen))
                assert index_lists_json(chosen) == want, chosen[:8]
        finally:
            blades._blades_json.cache_clear()

    def test_any_iterable_of_blades(self):
        want = json.dumps(index_lists(range(1, 9)))
        assert index_lists_json(list(range(1, 9))) == want
        assert index_lists_json(range(1, 9)) == want
        assert index_lists_json(b for b in range(1, 9)) == want

    def test_an_equal_tuple_is_a_cache_hit(self):
        blades._blades_json.cache_clear()
        first = index_lists_json(tuple(blade_table(5).order[3:20]))
        assert blades._blades_json.cache_info().misses == 1
        assert index_lists_json(tuple(blade_table(5).order[3:20])) is first
        info = blades._blades_json.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestBladeProduct:
    def test_generator_squares(self):
        sig = make_signature(1, 1, 1)
        e1, e2, e3 = (blade_from_indices((i,)) for i in (1, 2, 3))
        assert blade_product(sig, e1, e1) == (1, 0)
        assert blade_product(sig, e2, e2) == (-1, 0)
        assert blade_product(sig, e3, e3) == (0, 0)

    def test_anticommuting_generators(self):
        sig = make_signature(2, 0, 0)
        e1, e2 = blade_from_indices((1,)), blade_from_indices((2,))
        assert blade_product(sig, e1, e2) == (1, blade_from_indices((1, 2)))
        assert blade_product(sig, e2, e1) == (-1, blade_from_indices((1, 2)))

    def test_hand_computed_product(self):
        # e12 * e13 = -e1 e1 e2 e3 = -e23 in Cl(3,0,0)
        sig = make_signature(3, 0, 0)
        a = blade_from_indices((1, 2))
        b = blade_from_indices((1, 3))
        assert blade_product(sig, a, b) == (-1, blade_from_indices((2, 3)))

    def test_degenerate_annihilation(self):
        sig = make_signature(1, 0, 2)
        a = blade_from_indices((1, 2))
        b = blade_from_indices((2, 3))
        assert blade_product(sig, a, b) == (0, 0)

    def test_scalar_is_identity(self):
        sig = make_signature(2, 1, 0)
        for b in all_blades(sig):
            assert blade_product(sig, 0, b) == (1, b)
            assert blade_product(sig, b, 0) == (1, b)

    def test_associative_on_blades(self):
        def scaled(sig, sign, blade, other, after):
            if sign == 0:
                return (0, 0)
            s2, out = (blade_product(sig, blade, other) if after
                       else blade_product(sig, other, blade))
            return (0, 0) if s2 == 0 else (sign * s2, out)

        sig = make_signature(1, 1, 1)
        blades = list(all_blades(sig))
        for a in blades:
            for b in blades:
                for c in blades:
                    s_ab, ab = blade_product(sig, a, b)
                    s_bc, bc = blade_product(sig, b, c)
                    assert (scaled(sig, s_ab, ab, c, after=True)
                            == scaled(sig, s_bc, bc, a, after=False))

    @pytest.mark.parametrize("sig", [make_signature(1, 1, 1),
                                     make_signature(0, 0, 2)])
    def test_rejects_out_of_range_blades(self, sig):
        full = sig.full_mask
        for a, b, bad in ((full + 1, 1, full + 1), (-1, 1, -1),
                          (1, full + 1, full + 1)):
            message = re.escape(f"blade {bad:#x} not valid for {sig}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                blade_product(sig, a, b)


    def test_returns_scaled_blades(self):
        sig = make_signature(1, 0, 1)
        for a, b in ((1, 1), (2, 2)):  # e1 e1 = 1, e2 e2 = 0
            assert type(blade_product(sig, a, b)) is ScaledBlade
        assert blade_product(sig, 1, 3) == ScaledBlade(sign=1, blade=2)

    @pytest.mark.parametrize("a,b", [(True, 2), (1, 2.0), (2, False)])
    def test_rejects_bool_and_float_blades(self, a, b):
        sig = make_signature(2, 0, 0)
        with pytest.raises(ValueError, match="is not an int mask"):
            blade_product(sig, a, b)
        with pytest.raises(ValueError, match="is not an int mask"):
            commute_class(sig, a, b)


class TestCommuteClass:
    def test_matches_direct_comparison(self):
        sig = make_signature(1, 1, 1)
        for a in all_blades(sig):
            for b in all_blades(sig):
                sa, ab = blade_product(sig, a, b)
                sb, ba = blade_product(sig, b, a)
                cls = commute_class(sig, a, b)
                if sa == 0:
                    assert cls is CommuteClass.ANNIHILATE
                    assert sb == 0
                elif (sa, ab) == (sb, ba):
                    assert cls is CommuteClass.COMMUTE
                else:
                    assert (ab == ba) and (sa == -sb)
                    assert cls is CommuteClass.ANTICOMMUTE


class TestInvolutions:
    @pytest.mark.parametrize("grade,hat,tilde", [
        (0, 1, 1), (1, -1, 1), (2, 1, -1), (3, -1, -1),
        (4, 1, 1), (5, -1, 1), (6, 1, -1), (7, -1, -1),
    ])
    def test_sign_table(self, grade, hat, tilde):
        b = blade_from_indices(tuple(range(1, grade + 1)))
        assert (hat_sign(b), tilde_sign(b)) == (hat, tilde)
        assert hat_sign(b) == hat
        assert tilde_sign(b) == tilde


class TestParseFormat:
    def test_round_trip(self):
        for text in ("e[]", "e[1]", "e[2,5]", "e[1,2,3]"):
            assert format_blade(parse_blade(text)) == text

    def test_format(self):
        assert format_blade(0) == "e[]"
        assert format_blade(blade_from_indices((1, 3))) == "e[1,3]"

    # the last two: Arabic-Indic and full-width digits
    @pytest.mark.parametrize("bad", ["", "e", "e[", "e[0]", "e[2,1]", "e[1,1]", "[1]",
                                     "e[\u0661,\u0662]", "e[\uff11]"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_blade(bad)


class TestParseInt:
    @pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("-3", -3),
                                             ("007", 7), ("1000000000", 10**9)])
    def test_accepts_ascii_integers(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize("bad", ["", "-", "+1", "1_0", " 1", "1 ", "1.0",
                                     "\uff11", "\u0663", "0x1"])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError, match="not an INT"):
            parse_int(bad)
