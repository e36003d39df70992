"""Blade-set subspaces, their constructors, and the spec grammar."""

import random
import re
import sys

import numpy as np
import pytest

from cliffcent import subspaces
from cliffcent.blades import (
    blade_from_indices,
    blade_grade,
    blade_sort_key,
    blade_table,
    format_blade,
    hat_sign,
    make_signature,
    tilde_sign,
)
from cliffcent.centralizers import _assemble, all_signatures
from cliffcent.subspaces import (
    Subspace,
    SubspaceSpec,
    direct_sum,
    evaluate_spec,
    full_algebra,
    grade_range,
    grade_subspace,
    intersect,
    lambda_even,
    lambda_full,
    lambda_range,
    lambda_subspace,
    nondeg_grade_subspace,
    nondeg_times_lambda,
    parity_part,
    parity_subspace,
    parse_subspace_spec,
    quaternion_type_subspace,
    subspace_from_text,
)

SIG = make_signature(2, 0, 2)   # generators 1,2 nondegenerate; 3,4 degenerate
SMALL_SIGNATURES = all_signatures(6)
# n >= 12, so that Lambda and the non-degenerate pieces are wide table slices
LARGE_SIGNATURES = [make_signature(3, 2, 7), make_signature(0, 0, 13)]


def by_definition(sig, support, lo, hi):
    """Blades inside ``support`` with grade in [lo, hi], by scanning them all."""
    return {b for b in range(1 << sig.n)
            if b & ~support == 0 and lo <= blade_grade(b) <= hi}


class TestConstructors:
    def test_grade_subspace(self):
        s = grade_subspace(SIG, 2)
        assert s.dimension() == 6
        assert blade_from_indices((1, 3)) in s
        assert grade_subspace(SIG, 5).dimension() == 0
        assert grade_subspace(SIG, -1).dimension() == 0

    def test_grade_range_clamps(self):
        assert grade_range(SIG, -2, 1) == direct_sum([grade_subspace(SIG, 0),
                                                      grade_subspace(SIG, 1)])
        assert grade_range(SIG, 3, 99).dimension() == 4 + 1

    def test_lambda_subspace_uses_degenerate_indices_only(self):
        s = lambda_subspace(SIG, 1)
        assert s.blades == {blade_from_indices((3,)), blade_from_indices((4,))}
        assert lambda_subspace(SIG, 3).dimension() == 0

    def test_lambda_full_and_even(self):
        assert lambda_full(SIG).dimension() == 4
        assert lambda_even(SIG).blades == {0, blade_from_indices((3, 4))}

    def test_nondeg_grade_subspace(self):
        s = nondeg_grade_subspace(SIG, 2)
        assert s.blades == {blade_from_indices((1, 2))}
        assert nondeg_grade_subspace(SIG, 3).dimension() == 0

    def test_parity(self):
        assert parity_subspace(SIG, 0).dimension() == 8
        u = parity_part(grade_range(SIG, 0, 2), 1)
        assert u.blades == grade_subspace(SIG, 1).blades

    def test_zero_and_full(self):
        assert full_algebra(SIG).dimension() == 16

    def test_repr_of_the_full_n16_algebra_is_hex(self):
        # its mask has 19,729 decimal digits, past the int-to-str limit
        text = repr(full_algebra(make_signature(0, 0, 16)))
        assert text == "Subspace(Cl(0,0,16), 0x" + "f" * (1 << 14) + ")"
        assert len(text) == 16_408

    @pytest.mark.parametrize("blade", [1 << SIG.n, -1])
    def test_rejects_out_of_range_blade(self, blade):
        with pytest.raises(ValueError, match=f"blade {blade:#x} not valid"):
            Subspace.from_blades(SIG, {0, blade, SIG.full_mask})

    @pytest.mark.parametrize("value", [0.5, "3", None, True, np.int64(3)])
    def test_rejects_non_int_masks_and_blades(self, value):
        with pytest.raises(ValueError, match=re.escape(f"mask {value!r} is not an int")):
            Subspace(SIG, value)
        with pytest.raises(ValueError,
                           match=re.escape(f"blade {value!r} is not an int mask")):
            Subspace.from_blades(SIG, [value])


class TestEmptyGradeMasks:
    """An empty grade set on either side of the split is the zero mask,
    returned after the n <= 16 bound is checked."""

    def test_empty_side_gives_zero(self):
        for n in range(17):
            for split in range(n + 1):
                full_low = tuple(range(split + 1))
                full_high = tuple(range(n - split + 1))
                assert subspaces._grade_mask(n, split, (), full_high) == 0
                assert subspaces._grade_mask(n, split, full_low, ()) == 0
                assert subspaces._grade_mask(n, split, (), ()) == 0

    @pytest.mark.parametrize("low, high", [((), (0,)), ((0,), ()), ((), ())])
    def test_n_17_still_raises(self, low, high):
        with pytest.raises(ValueError, match="limited to n <= 16, got n = 17"):
            subspaces._grade_mask(17, 0, low, high)


class TestGradeMaskDefinition:
    """``_grade_mask`` equals its popcount definition, blade by blade."""

    @staticmethod
    def defined(n, split, low, high):
        below = (1 << split) - 1
        return sum(1 << b for b in range(1 << n)
                   if (b & below).bit_count() in low
                   and (b >> split).bit_count() in high)

    def test_every_split_of_small_n(self):
        rng = random.Random(20)
        for n in range(1, 9):
            for split in range(n + 1):
                sides = [[g for g in range(width + 1) if rng.random() < 0.5]
                         for width in (split, n - split) for _ in range(3)]
                for low, high in zip(sides[:3], sides[3:]):
                    low, high = tuple(low) or (0,), tuple(high) or (0,)
                    assert (subspaces._grade_mask(n, split, low, high)
                            == self.defined(n, split, low, high)), (n, split, low, high)


class TestConstructorDefinitions:
    """Each graded constructor equals a filter over every blade mask, in
    every signature with n <= 6."""

    def test_single_grade_constructors(self):
        for sig in SMALL_SIGNATURES + LARGE_SIGNATURES:
            nondeg = sig.full_mask & ~sig.degenerate_mask
            for k in range(-1, sig.n + 2):
                assert grade_subspace(sig, k).blades == \
                    by_definition(sig, sig.full_mask, k, k), (sig, k)
                assert lambda_subspace(sig, k).blades == \
                    by_definition(sig, sig.degenerate_mask, k, k), (sig, k)
                assert nondeg_grade_subspace(sig, k).blades == \
                    by_definition(sig, nondeg, k, k), (sig, k)

    def test_range_constructors(self):
        for sig in SMALL_SIGNATURES + LARGE_SIGNATURES:
            # includes lo > hi, bounds outside [0, n] and a huge upper bound
            bounds = list(range(-1, sig.n + 2)) + [10**9]
            if sig.n > 6:
                bounds = [-1, 0, 1, sig.r - 1, sig.r, sig.n - 1, sig.n + 1, 10**9]
            for lo in bounds:
                for hi in bounds:
                    assert grade_range(sig, lo, hi).blades == \
                        by_definition(sig, sig.full_mask, lo, hi), (sig, lo, hi)
                    assert lambda_range(sig, lo, hi).blades == \
                        by_definition(sig, sig.degenerate_mask, lo, hi), \
                        (sig, lo, hi)

    def test_nondeg_times_lambda(self):
        for sig in SMALL_SIGNATURES + LARGE_SIGNATURES:
            nondeg = sig.full_mask & ~sig.degenerate_mask
            bounds = list(range(-1, sig.n + 2)) + [10**9]
            if sig.n > 6:
                bounds = [-1, 0, 1, sig.r - 1, sig.r, sig.n - 1, sig.n + 1, 10**9]
            for k in range(-1, sig.p + sig.q + 2):
                grade_k = by_definition(sig, nondeg, k, k)
                for lo in bounds:
                    for hi in bounds:
                        lam = by_definition(sig, sig.degenerate_mask, lo, hi)
                        assert nondeg_times_lambda(sig, k, lo, hi).blades == \
                            {x | y for x in grade_k for y in lam}, (sig, k, lo, hi)

    def test_parity_subspace(self):
        for sig in SMALL_SIGNATURES + LARGE_SIGNATURES:
            for l in (0, 1):
                assert parity_subspace(sig, l).blades == \
                    {b for b in range(1 << sig.n) if blade_grade(b) % 2 == l}

    def test_parity_subspace_rejects_other_values(self):
        with pytest.raises(ValueError, match="parity must be 0 or 1"):
            parity_subspace(SIG, 2)


class TestGradeRuns:
    """parity_subspace and lambda_even read whole grade runs of the blade
    table; they must equal the parity filter of what they restrict."""

    def test_equal_the_parity_part(self):
        for sig in [*all_signatures(8), make_signature(16, 0, 0),
                    make_signature(4, 0, 12)]:
            for l in (0, 1):
                assert parity_subspace(sig, l) == \
                    parity_part(full_algebra(sig), l), (sig, l)
            assert lambda_even(sig) == parity_part(lambda_full(sig), 0), sig


class TestQuaternionTypes:
    def test_types_partition_by_grade_mod_4(self):
        # the defining sign conditions must carve out exactly grades = m mod 4
        for sig in (SIG, make_signature(3, 2, 1), make_signature(0, 0, 3),
                    *LARGE_SIGNATURES):
            for m in range(4):
                s = quaternion_type_subspace(sig, m)
                expected = {b for b in full_algebra(sig).blades
                            if blade_grade(b) % 4 == m}
                assert s.blades == expected

    def test_sign_conditions(self):
        want = {0: (1, 1), 1: (-1, 1), 2: (1, -1), 3: (-1, -1)}
        for m in range(4):
            for b in quaternion_type_subspace(SIG, m).blades:
                assert (hat_sign(b), tilde_sign(b)) == want[m]

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            quaternion_type_subspace(SIG, 4)

    def test_tests_each_grade_once(self, monkeypatch):
        sig = make_signature(0, 0, 12)
        calls = []

        def counting(blade):
            calls.append(blade)
            return hat_sign(blade)

        monkeypatch.setattr(subspaces, "hat_sign", counting)
        subspaces._qt_grades.cache_clear()  # grade sets are cached per (n, m)
        for m in range(4):
            calls.clear()
            quaternion_type_subspace(sig, m)
            assert len(calls) <= sig.n + 1, m


# one signature per n in 1..10, with n // 3 degenerate generators, and
# two at n = 16
BITMAP_SIGNATURES = [make_signature(n - n // 3, 0, n // 3) for n in range(1, 11)]
BITMAP_SIGNATURES += [make_signature(12, 0, 4), make_signature(0, 0, 16)]


def random_blade_sets(sig, rng):
    """Seeded blade sets of sizes from empty to full; at n = 16 only a few."""
    size = 1 << sig.n
    sizes = [0, 1, rng.randint(2, 32), rng.randint(1, size), size]
    if sig.n > 10:
        sizes = [0, 1, 40, size // 2]
    return [frozenset(rng.sample(range(size), min(k, size))) for k in sizes]


class TestBitmapAgainstFrozensets:
    """Every mask operation equals the same operation on frozensets."""

    @pytest.mark.parametrize("sig", BITMAP_SIGNATURES, ids=str)
    def test_views(self, sig):
        rng = random.Random(sig.n)
        for a in random_blade_sets(sig, rng):
            s = Subspace.from_blades(sig, a)
            assert s.blades == a
            assert s.dimension() == len(a)
            assert list(s.sorted_blades()) == sorted(a, key=blade_sort_key)
            probes = [-1, -(1 << 20), 1 << sig.n, 1 << 40,
                      *rng.sample(range(1 << sig.n), min(64, 1 << sig.n))]
            for blade in probes:
                assert (blade in s) == (blade in a), blade
            for blade in (1.0, True, "1", None, (1,)):
                assert blade not in s

    @pytest.mark.parametrize("sig", BITMAP_SIGNATURES, ids=str)
    def test_set_algebra(self, sig):
        rng = random.Random(100 + sig.n)
        sets = random_blade_sets(sig, rng)
        for a in sets:
            sa = Subspace.from_blades(sig, a)
            for l in (0, 1):
                assert parity_part(sa, l).blades == \
                    {x for x in a if blade_grade(x) % 2 == l}
            for b in sets:
                sb = Subspace.from_blades(sig, b)
                assert intersect(sa, sb).blades == a & b
                assert (sa == sb) == (a == b)
                only_a = Subspace.from_blades(sig, a - b)
                assert direct_sum([only_a, sb]).blades == a | b
                if a & b:
                    lowest = format_blade(min(a & b))
                    with pytest.raises(ValueError, match=re.escape(lowest)):
                        direct_sum([sa, sb])
                else:
                    assert direct_sum([sa, sb]).blades == a | b

    @pytest.mark.parametrize("sig", BITMAP_SIGNATURES, ids=str)
    def test_assemble_excepts_only_the_pseudoscalar(self, sig):
        rng = random.Random(200 + sig.n)
        top = frozenset({sig.full_mask})
        for a in random_blade_sets(sig, rng):
            b = frozenset(rng.sample(range(1 << sig.n), min(8, 1 << sig.n)))
            parts = [Subspace.from_blades(sig, a | top),
                     Subspace.from_blades(sig, (b - a) | top)]
            assert _assemble(sig, parts).blades == a | b | top
            overlap = (a & b) - top
            if overlap:
                parts = [Subspace.from_blades(sig, a), Subspace.from_blades(sig, b)]
                bad = format_blade(min(overlap))
                with pytest.raises(RuntimeError, match=re.escape(f"overlap at {bad}")):
                    _assemble(sig, parts)

    @pytest.mark.parametrize("sig", BITMAP_SIGNATURES, ids=str)
    def test_nondeg_times_lambda(self, sig):
        # blades over disjoint generators multiply to their union, x | y
        nondeg = sig.full_mask & ~sig.degenerate_mask
        by_grade = {}
        for b in range(1 << sig.n):
            if b & ~nondeg == 0:
                by_grade.setdefault(("nondeg", blade_grade(b)), set()).add(b)
            if b & ~sig.degenerate_mask == 0:
                by_grade.setdefault(("lambda", blade_grade(b)), set()).add(b)
        rng = random.Random(300 + sig.n)
        triples = [(0, 0, sig.r), (sig.p + sig.q, 0, 0), (1, sig.r, 0)]
        triples += [(rng.randint(-1, sig.p + sig.q + 1),
                     rng.randint(-1, sig.r + 1), rng.randint(-1, sig.r + 1))
                    for _ in range(5)]
        for k, lo, hi in triples:
            grade_k = by_grade.get(("nondeg", k), set())
            lam = set().union(*(by_grade.get(("lambda", g), set())
                                for g in range(lo, hi + 1)))
            assert nondeg_times_lambda(sig, k, lo, hi).blades == \
                {x | y for x in grade_k for y in lam}, (k, lo, hi)

    @pytest.mark.parametrize("sig", BITMAP_SIGNATURES, ids=str)
    def test_mask_bounds(self, sig):
        top = 1 << (1 << sig.n)
        assert Subspace(sig, top - 1) == full_algebra(sig)
        for mask in (-1, top, top | 1, -top):
            with pytest.raises(ValueError, match="not valid for"):
                Subspace(sig, mask)


class TestSortedBlades:
    def test_matches_sort_key_on_random_sets(self):
        rng = random.Random(6)
        for sig in (SIG, make_signature(3, 2, 1), *LARGE_SIGNATURES):
            for size in (0, 1, 5, 100, 1 << sig.n):
                blades = rng.sample(range(1 << sig.n), min(size, 1 << sig.n))
                s = Subspace.from_blades(sig, blades)
                assert list(s.sorted_blades()) == sorted(blades, key=blade_sort_key)

    def test_warm_sort_calls_no_sort_key(self, monkeypatch):
        sig = make_signature(0, 0, 12)
        s = full_algebra(sig)
        blade_table(sig.n)
        calls = []

        def counting(blade):
            calls.append(blade)
            return blade_sort_key(blade)

        # replace the key wherever a cliffcent module holds it
        for name, module in list(sys.modules.items()):
            if name.startswith("cliffcent") and hasattr(module, "blade_sort_key"):
                monkeypatch.setattr(module, "blade_sort_key", counting)
        assert s.sorted_blades() == blade_table(sig.n).order
        assert calls == []

    @staticmethod
    def masks_to_check():
        """Every mask with n <= 3, then 200 seeded masks for each n in
        4..10: half dense, half with at most 32 blades."""
        for n in range(1, 4):
            for mask in range(1 << (1 << n)):
                yield n, mask
        rng = random.Random(21)
        for n in range(4, 11):
            size = 1 << n
            for i in range(200):
                if i % 2:
                    blades = rng.sample(range(size), rng.randint(0, min(size, 32)))
                    yield n, sum(1 << b for b in blades)
                else:
                    yield n, rng.getrandbits(size)

    def test_cached_tuples_match_sort_key(self):
        subspaces._sorted_blades.cache_clear()
        for n, mask in self.masks_to_check():
            first = subspaces._sorted_blades(n, mask)
            want = sorted((b for b in range(1 << n) if mask >> b & 1),
                          key=blade_sort_key)
            assert list(first) == want, (n, hex(mask))
            assert subspaces._sorted_blades(n, mask) is first


class TestDirectSum:
    def test_disjoint_union(self):
        s = direct_sum([grade_subspace(SIG, 0), grade_subspace(SIG, 2)])
        assert s.dimension() == 7

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="e\\["):
            direct_sum([grade_subspace(SIG, 1), parity_subspace(SIG, 1)])

    @pytest.mark.parametrize("call, message", [
        (lambda other: direct_sum([grade_subspace(SIG, 0), other]),
         "signature mismatch in direct_sum"),
        (lambda other: direct_sum([]), "direct_sum of no subspaces"),
        (lambda other: intersect(grade_subspace(SIG, 0), other),
         "signature mismatch in intersect"),
    ])
    def test_refuses_mixed_or_no_signatures(self, call, message):
        other = grade_subspace(make_signature(2, 1, 1), 1)
        with pytest.raises(ValueError, match=message):
            call(other)

    def test_set_predicates(self):
        a = grade_range(SIG, 0, 2)
        b = grade_subspace(SIG, 1)
        assert b.mask & ~a.mask == 0
        assert a.mask & ~b.mask != 0
        assert intersect(a, parity_subspace(SIG, 1)) == b


class TestSpecGrammar:
    @pytest.mark.parametrize("text,expected_atoms", [
        ("grade:2", (("grade", 2),)),
        ("grade:1..3", (("grade_range", 1, 3),)),
        ("lambda:1", (("lambda", 1),)),
        ("qt:3", (("qt", 3),)),
        ("qt:13", (("qt_pair", 1, 3),)),
        ("even", (("qt_pair", 0, 2),)),
        ("odd", (("qt_pair", 1, 3),)),
        ("all", (("all",),)),
        ("grade:0+grade:3", (("grade", 0), ("grade", 3))),
    ])
    def test_parses(self, text, expected_atoms):
        assert parse_subspace_spec(text).atoms == expected_atoms

    @pytest.mark.parametrize("bad", [
        "", "grade:", "grade:x", "grade:1..", "qt:4", "qt:123", "lambda:a",
        "mystery:1", "grade:1+",
        "grade:1_0", "grade: 2", "grade:\u0663", "lambda:1_0",
        "grade:+2", "grade:1..+2",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_subspace_spec(bad)

    @pytest.mark.parametrize("bad,message", [
        # INT is ASCII "-"? [0-9]+, not whatever int() accepts
        ("grade:1_0", "bad grade '1_0' at position 0"),
        ("grade: 2", "bad grade ' 2' at position 0"),
        ("grade:\u0663", "bad grade '\u0663' at position 0"),
        ("lambda:1_0", "bad lambda grade '1_0' at position 0"),
        ("grade:1..1_0", "bad grade range '1..1_0' at position 0"),
        ("grade:+2", "'+' at position 6 is the direct-sum operator, not a sign"),
        ("grade:1..+2",
         "'+' at position 9 is the direct-sum operator, not a sign"),
        ("grade:1+", "unknown subspace atom '' at position 8"),
    ])
    def test_error_names_the_bad_text(self, bad, message):
        with pytest.raises(ValueError) as info:
            parse_subspace_spec(bad)
        assert str(info.value) == message

    def test_negative_and_padded_ints_stay_valid(self):
        assert parse_subspace_spec("grade:-1").atoms == (("grade", -1),)
        assert parse_subspace_spec(" grade:0..2 + lambda:1 ").atoms == \
            (("grade_range", 0, 2), ("lambda", 1))

    def test_evaluates(self):
        assert subspace_from_text(SIG, "even").blades == \
            parity_subspace(SIG, 0).blades
        assert subspace_from_text(SIG, "lambda:2").blades == \
            lambda_subspace(SIG, 2).blades
        spec = parse_subspace_spec("grade:0+grade:4")
        assert evaluate_spec(SIG, spec).blades == \
            {0, blade_from_indices((1, 2, 3, 4))}

    def test_an_unknown_atom_is_refused_at_evaluation(self):
        spec = SubspaceSpec((("nope", 1),), "nope:1")
        with pytest.raises(ValueError,
                           match=re.escape("unhandled atom ('nope', 1)")):
            evaluate_spec(SIG, spec)

    def test_union_overlap_is_rejected_at_evaluation(self):
        spec = parse_subspace_spec("grade:1+odd")
        with pytest.raises(ValueError):
            evaluate_spec(SIG, spec)

    def test_lambda_range_helper(self):
        assert lambda_range(SIG, 1, 2).blades == \
            (lambda_subspace(SIG, 1).blades | lambda_subspace(SIG, 2).blades)
