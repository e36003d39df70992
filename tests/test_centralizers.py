"""Centralizer routes: brute force, nullspace oracle, and closed forms."""

import dataclasses
import functools
import itertools
import json
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from cliffcent import _linalg, centralizers, cli, subspaces
from cliffcent.blades import (
    MAX_DIM,
    Signature,
    all_blades,
    blade_from_indices,
    blade_grade,
    blade_product,
    blade_table,
    format_blade,
    index_lists_json,
    make_signature,
)
from cliffcent.centralizers import (
    SWEEP_MAX_DIM,
    CentralizerKind,
    Table1Row,
    _assemble,
    all_signatures,
    brute_force_centralizer,
    center_closed_form,
    closed_form_grade,
    closed_form_nondegenerate,
    closed_form_qt,
    closed_form_qt_pair,
    closed_form_small_grade,
    nullspace_centralizer_oracle,
    nullspace_matches_blades,
    report_json,
    summarize,
    sweep_targets,
    sweep_verify,
    table1_rows,
    verify_case,
)
from cliffcent.cli import main
from cliffcent.multivector import Multivector, grade_involute
from cliffcent.subspaces import (
    Subspace,
    SubspaceSpec,
    direct_sum,
    evaluate_spec,
    full_algebra,
    grade_subspace,
    intersect,
    nondeg_times_lambda,
    parity_part,
    parse_subspace_spec,
    subspace_from_text,
)

PLAIN = CentralizerKind.PLAIN
HAT = CentralizerKind.GRADE_TWISTED
TILDE = CentralizerKind.MIX_TWISTED


def blades(sig, *index_tuples):
    return frozenset(blade_from_indices(t) for t in index_tuples)


def slow_centralizer(sig, s, kind):
    """Independent reference: test the defining identity with real products."""
    kept = set()
    for x in all_blades(sig):
        bx = Multivector.basis_blade(sig, x)
        ok = True
        for v in s.blades:
            bv = Multivector.basis_blade(sig, v)
            twisted = (kind is HAT
                       or (kind is TILDE and blade_grade(v) % 2 == 1))
            lhs = (grade_involute(bx) if twisted else bx) * bv
            if lhs != bv * bx:
                ok = False
                break
        if ok:
            kept.add(x)
    return kept


def pair_kernel_centralizer(sig, s, kind):
    """Reference: the parity rule tested pair by pair, 64 blades of S at a
    time, dropping a candidate x as soon as some blade v rejects it."""
    v_all = np.fromiter(s.blades, dtype=np.uint16, count=len(s.blades))
    v_parity = np.bitwise_count(v_all) & 1
    # the factor multiplying |x| in the exponent, mod 2
    if kind is PLAIN:
        x_factor = v_parity
    elif kind is HAT:
        x_factor = v_parity ^ 1
    else:
        x_factor = np.zeros_like(v_parity)
    degenerate = np.uint16(sig.degenerate_mask)
    x = np.arange(1 << sig.n, dtype=np.uint16)
    for start in range(0, len(v_all), 64):
        block = slice(start, start + 64)
        shared = x[:, None] & v_all[None, block]
        x_parity = (np.bitwise_count(x) & 1)[:, None]
        exponent = np.bitwise_count(shared) + (x_parity & x_factor[None, block])
        ok = ((exponent & 1) == 0) | ((shared & degenerate) != 0)
        x = x[ok.all(axis=1)]
    return frozenset(x.tolist())


class TestBruteForce:
    @pytest.mark.parametrize("pqr", [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                                     (0, 0, 2), (1, 1, 1), (2, 0, 1)])
    @pytest.mark.parametrize("kind", list(CentralizerKind))
    @pytest.mark.parametrize("target", ["grade:1", "grade:2", "odd", "qt:1"])
    def test_agrees_with_product_level_reference(self, pqr, kind, target):
        sig = make_signature(*pqr)
        s = subspace_from_text(sig, target)
        fast = brute_force_centralizer(sig, s, kind)
        assert fast.blades == slow_centralizer(sig, s, kind)

    def test_empty_subspace_centralizes_to_everything(self):
        sig = make_signature(1, 1, 0)
        empty = Subspace.from_blades(sig, ())
        for kind in CentralizerKind:
            assert brute_force_centralizer(sig, empty, kind) == full_algebra(sig)

    def test_known_plain_values(self):
        sig = make_signature(0, 0, 2)
        got = brute_force_centralizer(sig, grade_subspace(sig, 1), PLAIN)
        assert got.blades == blades(sig, (), (1, 2))

        sig = make_signature(1, 0, 1)
        got = brute_force_centralizer(sig, grade_subspace(sig, 2), PLAIN)
        assert got.blades == blades(sig, (), (2,), (1, 2))

    def test_grade_twisted_of_degenerate_vectors_is_everything(self):
        sig = make_signature(0, 0, 2)
        got = brute_force_centralizer(sig, grade_subspace(sig, 1), HAT)
        assert got == full_algebra(sig)

    def test_scalar_target_conventions(self):
        # Scalars commute with everything plainly; the grade-twisted
        # condition hat(X) = X instead singles out the even part.
        sig = make_signature(2, 0, 0)
        scalars = grade_subspace(sig, 0)
        assert brute_force_centralizer(sig, scalars, PLAIN) == full_algebra(sig)
        assert brute_force_centralizer(sig, scalars, TILDE) == full_algebra(sig)
        hat = brute_force_centralizer(sig, scalars, HAT)
        assert hat == parity_part(full_algebra(sig), 0)

    def test_center_of_full_algebra(self):
        for pqr, expect in [
            ((3, 0, 0), {(), (1, 2, 3)}),
            ((2, 0, 0), {()}),
            ((0, 0, 2), {(), (1, 2)}),
        ]:
            sig = make_signature(*pqr)
            got = brute_force_centralizer(sig, full_algebra(sig), PLAIN)
            assert got.blades == blades(sig, *expect)
            assert got == center_closed_form(sig)

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_random_blade_sets_agree_with_product_level_reference(self, kind):
        rng = random.Random(0)
        for sig in all_signatures(4):
            size = 1 << sig.n
            for _ in range(6):
                chosen = rng.sample(range(size), rng.randint(1, size))
                s = Subspace.from_blades(sig, chosen)
                got = brute_force_centralizer(sig, s, kind)
                assert got.blades == slow_centralizer(sig, s, kind), (sig, chosen)


    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_matches_pair_kernel(self, kind):
        rng = random.Random(7)
        for sig in all_signatures(6):
            size = 1 << sig.n
            for count in [0, 1, size] + [rng.randint(1, size) for _ in range(5)]:
                chosen = rng.sample(range(size), count)
                s = Subspace.from_blades(sig, chosen)
                got = brute_force_centralizer(sig, s, kind)
                assert got.blades == pair_kernel_centralizer(sig, s, kind), \
                    (sig, sorted(chosen))

    @pytest.mark.parametrize("n", [MAX_DIM + 1, 40])
    def test_rejects_algebras_beyond_max_dim(self, n):
        sig = Signature(0, 0, n)
        for kind in CentralizerKind:
            with pytest.raises(ValueError, match=f"n <= {MAX_DIM}, got n = {n}"):
                brute_force_centralizer(sig, Subspace.from_blades(sig, {1}), kind)


class TestPackBoundary:
    """Brute force reads S from the mask's bytes and packs its answer back
    into them: 2, 4 and 8 blades at n = 1, 2 and 3 fill less than one byte
    or exactly one, and n = 16 fills 8,192."""

    @pytest.mark.parametrize("sig", all_signatures(3), ids=str)
    @pytest.mark.parametrize("kind", list(CentralizerKind))
    @pytest.mark.parametrize("target", ["all", "grade:1"])
    def test_small_algebras_match_the_reference(self, sig, kind, target):
        s = subspace_from_text(sig, target)
        got = brute_force_centralizer(sig, s, kind)
        assert got.blades == slow_centralizer(sig, s, kind)

    @pytest.mark.parametrize("pqr", [(0, 0, 16), (8, 4, 4), (2, 0, 14)])
    def test_center_at_sixteen_generators(self, pqr):
        sig = make_signature(*pqr)
        got = brute_force_centralizer(sig, full_algebra(sig), PLAIN)
        assert got == center_closed_form(sig)


def random_disjoint_pairs():
    """Seeded (sig, A, B): four per signature with n <= 4, where A and B
    are disjoint nonempty blade sets."""
    rng = random.Random(0)
    for sig in all_signatures(4):
        size = 1 << sig.n
        for _ in range(4):
            pool = rng.sample(range(size), size)
            cut = rng.randint(1, size - 1)
            end = rng.randint(cut + 1, size)
            yield (sig, Subspace.from_blades(sig, pool[:cut]),
                   Subspace.from_blades(sig, pool[cut:end]))


class TestCentralizerLaws:
    """Laws that need no closed form, checked on arbitrary blade sets."""

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_linearity(self, kind):
        for sig, a, b in random_disjoint_pairs():
            got = brute_force_centralizer(sig, direct_sum([a, b]), kind)
            want = intersect(brute_force_centralizer(sig, a, kind),
                             brute_force_centralizer(sig, b, kind))
            assert got == want, (sig, a, b)

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_antitonicity(self, kind):
        for sig, a, b in random_disjoint_pairs():
            bigger = brute_force_centralizer(sig, direct_sum([a, b]), kind)
            assert bigger.blades <= brute_force_centralizer(sig, a, kind).blades

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_closed_under_blade_products(self, kind):
        for sig, a, _ in random_disjoint_pairs():
            cent = brute_force_centralizer(sig, a, kind).blades
            for x in cent:
                for y in cent:
                    sign, xy = blade_product(sig, x, y)
                    assert sign == 0 or xy in cent, (sig, a, x, y)

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_oracle_agrees_under_every_metric_split(self, kind):
        # Cl(p,q,r) and Cl(p+q,0,r) have the same blade-set centralizers;
        # the oracle is the one route whose products read the metric signs.
        for sig, a, _ in random_disjoint_pairs():
            brute = brute_force_centralizer(sig, a, kind).blades
            for split in (sig, make_signature(sig.p + sig.q, 0, sig.r)):
                dim, basis = nullspace_centralizer_oracle(
                    split, Subspace.from_blades(split, a.blades), kind)
                assert nullspace_matches_blades(dim, basis, brute), (split, a)

    def test_mix_twisted_splits_into_plain_even_and_hat_odd(self):
        # on S_even tilde's condition is the plain one, on S_odd the hat one
        for sig, a, b in random_disjoint_pairs():
            for s in (a, b, direct_sum([a, b])):
                even, odd = parity_part(s, 0), parity_part(s, 1)
                plain_even = brute_force_centralizer(sig, even, PLAIN)
                hat_odd = brute_force_centralizer(sig, odd, HAT)
                assert brute_force_centralizer(sig, s, TILDE) == intersect(
                    plain_even, hat_odd), (sig, s)
                assert brute_force_centralizer(sig, even, TILDE) == plain_even
                assert brute_force_centralizer(sig, odd, TILDE) == hat_odd


class TestBruteForceLargeAlgebras:
    """n = 16: every transform row holds 65,536 candidate blades."""

    @pytest.mark.parametrize("pqr", [(16, 0, 0), (15, 0, 1)])
    def test_center_command_matches_closed_form(self, capsys, pqr):
        code = main(["center", "--signature", ",".join(map(str, pqr)),
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["match"] is True
        sig = make_signature(*pqr)
        rebuilt = frozenset(blade_from_indices(ix) for ix in payload["blades"])
        assert rebuilt == center_closed_form(sig).blades

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_grade_two_matches_closed_form(self, kind):
        sig = make_signature(8, 4, 4)
        got = brute_force_centralizer(sig, grade_subspace(sig, 2), kind)
        assert got == closed_form_grade(sig, 2, kind)

    @pytest.mark.parametrize("pqr", [(0, 0, 16), (8, 4, 4)])
    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_quaternion_type_pair_matches_closed_form(self, pqr, kind):
        # qt:12 spans half of the 65,536 blades
        report = verify_case(make_signature(*pqr), "qt:12", kind,
                             with_nullspace=False)
        assert report.matches == {"closed_form": True, "qt_pair": True}
        assert report.diff == {}


class TestNullspaceOracle:
    def test_known_dimensions(self):
        sig = make_signature(0, 0, 2)
        dim, basis = nullspace_centralizer_oracle(
            sig, grade_subspace(sig, 1), PLAIN)
        assert dim == 2
        assert nullspace_matches_blades(dim, basis, blades(sig, (), (1, 2)))

        sig = make_signature(2, 0, 0)
        dim, _ = nullspace_centralizer_oracle(sig, grade_subspace(sig, 1), PLAIN)
        assert dim == 1
        dim, _ = nullspace_centralizer_oracle(sig, grade_subspace(sig, 0), PLAIN)
        assert dim == 2 ** sig.n

    @pytest.mark.parametrize("pqr", [(1, 1, 1), (0, 2, 1), (2, 0, 2)])
    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_triangulates_brute_force(self, pqr, kind):
        sig = make_signature(*pqr)
        for target in ("grade:1", "grade:2", "qt:3", "even"):
            s = subspace_from_text(sig, target)
            brute = brute_force_centralizer(sig, s, kind)
            dim, basis = nullspace_centralizer_oracle(sig, s, kind)
            assert nullspace_matches_blades(dim, basis, brute.blades)

    def test_mismatch_detection(self):
        sig = make_signature(2, 0, 0)
        dim, basis = nullspace_centralizer_oracle(sig, grade_subspace(sig, 1), PLAIN)
        wrong = blades(sig, (), (1,))
        assert not nullspace_matches_blades(dim, basis, wrong)

    @pytest.mark.parametrize("pqr", [(4, 2, 2), (0, 0, 8)])
    def test_agrees_with_brute_force_at_its_bound(self, pqr):
        sig = make_signature(*pqr)
        assert sig.n == centralizers.NULLSPACE_MAX_DIM
        for target in ("grade:1", "grade:2", "qt:13"):
            s = subspace_from_text(sig, target)
            for kind in CentralizerKind:
                want = brute_force_centralizer(sig, s, kind).sorted_blades()
                dim, basis = nullspace_centralizer_oracle(sig, s, kind)
                assert dim == len(want), (target, kind)
                assert basis == [Multivector.basis_blade(sig, x) for x in want]

    def test_refuses_oversized_algebras(self):
        sig = make_signature(5, 4, 0)
        with pytest.raises(ValueError):
            nullspace_centralizer_oracle(sig, grade_subspace(sig, 1), PLAIN)


def per_pair_rows(sig, s, kind):
    """Reference assembly: one row per (v, result blade), built from two
    basis-blade products per pair (v, x)."""
    order = list(all_blades(sig))
    rows = {}
    for v in sorted(s.blades):
        v_mv = Multivector.basis_blade(sig, v)
        twist = kind is HAT or (kind is TILDE and blade_grade(v) & 1)
        for j, b in enumerate(order):
            x_mv = Multivector.basis_blade(sig, b)
            left = (grade_involute(x_mv) if twist else x_mv) * v_mv
            for r, c in (left - v_mv * x_mv).terms().items():
                rows.setdefault((v, r), {})[j] = c
    return list(rows.values())


def per_pair_oracle(sig, s, kind):
    """The per-pair rows solved by general elimination."""
    order = list(all_blades(sig))
    vectors = _linalg.nullspace(per_pair_rows(sig, s, kind), len(order))
    basis = [Multivector.from_terms(sig, [(order[j], c) for j, c in vec.items()])
             for vec in vectors]
    return len(basis), basis


def oracle_cases():
    """Every sweep target for n <= 4, then four seeded random blade sets
    per signature."""
    for sig in all_signatures(4):
        for target in sweep_targets(sig, centralizers.SWEEP_TARGET_FAMILIES):
            yield sig, subspace_from_text(sig, target)
    for sig, a, _ in random_disjoint_pairs():
        yield sig, a


class TestDiagonalSystem:
    """The premise of the oracle's diagonal read: column x under blade v
    lands only on row x XOR v, so every constraint row has one column."""

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_every_per_pair_row_has_one_column(self, kind):
        for sig, s in oracle_cases():
            rows = per_pair_rows(sig, s, kind)
            assert all(len(row) == 1 for row in rows), (sig, s)


class TestOracleAssembly:
    """The probe assembly must reproduce the per-pair assembly exactly."""

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_matches_per_pair_reference(self, kind):
        for sig, s in oracle_cases():
            dim, basis = nullspace_centralizer_oracle(sig, s, kind)
            assert (dim, basis) == per_pair_oracle(sig, s, kind), (sig, s)
            for mv in basis:
                assert all(type(c) is Fraction for c in mv.terms().values())


def count_products(monkeypatch):
    """Patch ``Multivector.__mul__`` to count its calls into the returned list."""
    calls = []
    original = Multivector.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Multivector, "__mul__", counting)
    return calls


def clear_every_cache():
    """Empty every functools cache bound in a cliffcent module, as the
    benchmark does before each pass."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cliffcent"):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class TestOracleRowCache:
    """The oracle's rows are shared per (signature, blade): both twists come
    from one product per side, so a signature costs at most 2 2^n products
    over every target and kind."""

    def test_a_signature_costs_at_most_two_products_per_blade(self, monkeypatch):
        sig = make_signature(2, 1, 1)
        centralizers._oracle_rows.cache_clear()
        calls = count_products(monkeypatch)
        for target in sweep_targets(sig, centralizers.SWEEP_TARGET_FAMILIES):
            s = subspace_from_text(sig, target)
            for kind in CentralizerKind:
                dim, _ = nullspace_centralizer_oracle(sig, s, kind)
                assert dim == len(brute_force_centralizer(sig, s, kind).blades)
        assert 0 < len(calls) <= 2 * 2 ** sig.n == 32

    def test_no_cache_survives_the_benchmark_reset(self, monkeypatch):
        sig = make_signature(1, 1, 1)
        s = full_algebra(sig)
        calls = count_products(monkeypatch)
        first = nullspace_centralizer_oracle(sig, s, HAT)
        clear_every_cache()
        calls.clear()
        assert nullspace_centralizer_oracle(sig, s, HAT) == first
        assert len(calls) == 2 * len(s.blades)


@pytest.mark.parametrize("n", range(6))
def test_transform_is_the_kernel_double_sum(n):
    """The transform of a row f is x -> sum over v of f(v) times the
    product over generators i of K[x_i, v_i], with the degenerate
    generators on top: linear, so exact on any integer row, not only on
    0/1 indicators.  The int8 rows must come back as int64."""
    rng = np.random.default_rng(n)
    for r in range(n + 1):
        sig = Signature(n - r, 0, r)
        kernels = [[[1, 1], [1, -1]] if i < n - r else [[1, 1], [1, 0]]
                   for i in range(n)]
        matrix = [[np.prod([kernels[i][x >> i & 1][v >> i & 1]
                            for i in range(n)], dtype=np.int64)
                   for v in range(1 << n)] for x in range(1 << n)]
        for _ in range(3):
            row = rng.integers(-3, 4, 1 << n, dtype=np.int8)
            want = [sum(int(f) * k for f, k in zip(row, line)) for line in matrix]
            got = centralizers._transform(sig, row)
            assert got.dtype == np.int64, (sig, got.dtype)
            assert got.tolist() == want, sig


def count_transforms(monkeypatch):
    """Patch the brute-force transform to count its calls into the
    returned list."""
    calls = []
    original = centralizers._transform

    def counting(sig, rows):
        calls.append(sig)
        return original(sig, rows)

    monkeypatch.setattr(centralizers, "_transform", counting)
    return calls


def even_part(s):
    """The mask of the even-grade blades of S, counted here, not read from
    brute force."""
    return sum(1 << b for b in s.blades if not b.bit_count() & 1)


class TestBruteForceTransformCache:
    """One transform of each of a target's even and odd part answers all
    three kinds.  A part's two masks are cached per (n, r, part): every
    split of p + q reads its class representative Cl(p + q, 0, r), and
    targets that share a part share its masks."""

    @pytest.mark.parametrize("cached", [
        lambda: centralizers._parities(4)[1],
        lambda: subspaces._order_array(4),
    ], ids=["parity_signs", "order_array"])
    def test_cached_arrays_are_read_only(self, cached):
        # every caller with the same key shares the array
        array = cached()
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
        assert np.array_equal(cached(), before)

    def test_one_transform_per_distinct_part(self, monkeypatch):
        sig = make_signature(2, 1, 1)
        clear_every_cache()
        calls = count_transforms(monkeypatch)
        names = sweep_targets(sig, centralizers.SWEEP_TARGET_FAMILIES)
        targets, parts = set(), set()
        for target in names:
            s = subspace_from_text(sig, target)
            targets.add(s)
            parts |= {even_part(s), s.mask & ~even_part(s)}
            for kind in CentralizerKind:
                got = brute_force_centralizer(sig, s, kind)
                assert got.blades == pair_kernel_centralizer(sig, s, kind), \
                    (target, kind)
            assert len(calls) == len(parts), target
        # at n = 4, qt:1, qt:2 and qt:3 span grades 1, 2 and 3; the parts
        # are the empty one and the 8 even or odd targets
        assert (len(names), len(targets), len(parts)) == (15, 12, 9)

    def test_one_transform_again_after_the_benchmark_reset(self, monkeypatch):
        sig = make_signature(1, 1, 2)
        s = subspace_from_text(sig, "qt:12")
        first = [brute_force_centralizer(sig, s, kind) for kind in CentralizerKind]
        clear_every_cache()
        calls = count_transforms(monkeypatch)
        again = [brute_force_centralizer(sig, s, kind) for kind in CentralizerKind]
        assert again == first
        # qt:12's even part grade 2 and its odd part grade 1
        assert calls == [make_signature(2, 0, 2)] * 2

    def test_the_splits_of_a_class_share_transforms_and_grade_forms(
            self, monkeypatch):
        clear_every_cache()
        calls = count_transforms(monkeypatch)
        grade_forms = centralizers._closed_form_grade
        misses = []
        for pqr in ((3, 0, 1), (2, 1, 1), (1, 2, 1), (0, 3, 1)):
            sig = make_signature(*pqr)
            for target in sweep_targets(sig, centralizers.SWEEP_TARGET_FAMILIES):
                for kind in CentralizerKind:
                    report = verify_case(sig, target, kind, with_nullspace=False)
                    assert report.match, (sig, target, kind, report.diff)
            misses.append(grade_forms.cache_info().misses)
        # 9 distinct parts of the 12 distinct targets at n = 4, all
        # transformed at Cl(3,0,1)
        assert calls == [make_signature(3, 0, 1)] * 9
        # grades 0..4, each under the plain and the hat kind
        assert misses == [10] * 4

    @pytest.mark.parametrize("pqr", [(3, 0, 0), (2, 1, 1), (1, 0, 4),
                                     (0, 0, 5), (4, 2, 0), (3, 1, 3)])
    def test_targets_that_share_parts_share_transforms(self, monkeypatch, pqr):
        sig = make_signature(*pqr)
        clear_every_cache()
        calls = count_transforms(monkeypatch)
        # qt:01's parts are qt:0 and qt:1, and all's are qt:02 and qt:13;
        # qt:0's empty odd part is also the odd part of qt:02
        costs = []
        for target in ("qt:0", "qt:1", "qt:01", "all", "qt:02", "qt:13",
                       "even", "odd"):
            before = len(calls)
            s = subspace_from_text(sig, target)
            for kind in CentralizerKind:
                got = brute_force_centralizer(sig, s, kind)
                assert got.blades == pair_kernel_centralizer(sig, s, kind), \
                    (target, kind)
            costs.append(len(calls) - before)
        assert costs == [2, 1, 0, 2, 0, 0, 0, 0]

    def test_a_part_caches_two_ints(self, monkeypatch):
        clear_every_cache()
        sig = make_signature(2, 1, 1)
        qt0, qt1, qt01 = (subspace_from_text(sig, target)
                          for target in ("qt:0", "qt:1", "qt:01"))
        for s in (qt0, qt1):
            brute_force_centralizer(sig, s, PLAIN)
        # qt:0 is grades 0 and 4 and qt:1 is grade 1, so the parts are
        # qt:0, qt:1 and the empty one
        parts = (qt0.mask, qt1.mask, 0)
        assert centralizers._part_masks.cache_info().currsize == len(parts)
        calls = count_transforms(monkeypatch)
        for part in parts:
            masks = centralizers._part_masks(4, 1, part)
            assert [type(mask) for mask in masks] == [int, int], part
        # qt:01's parts are qt:0 and qt:1, so it reads only the cache
        for kind in CentralizerKind:
            assert (brute_force_centralizer(sig, qt01, kind).blades
                    == pair_kernel_centralizer(sig, qt01, kind))
        assert calls == []

    def test_warm_splits_agree_with_the_pair_kernel(self):
        clear_every_cache()
        signatures = all_signatures(5)
        families = centralizers.SWEEP_TARGET_FAMILIES
        for sig in signatures:
            for target in sweep_targets(sig, families):
                s = subspace_from_text(sig, target)
                for kind in CentralizerKind:
                    brute_force_centralizer(sig, s, kind)
        for sig in reversed(signatures):
            for target in sweep_targets(sig, families):
                s = subspace_from_text(sig, target)
                for kind in CentralizerKind:
                    got = brute_force_centralizer(sig, s, kind)
                    assert got.signature == sig
                    assert got.blades == pair_kernel_centralizer(sig, s, kind), \
                        (sig, target, kind)

    @pytest.mark.parametrize("order", list(itertools.permutations(CentralizerKind)))
    def test_every_order_of_kinds_gives_the_masks_of_fresh_calls(self, order):
        for sig in all_signatures(3) + [make_signature(2, 1, 2)]:
            for target in ("grade:1", "grade:2", "odd", "qt:0", "qt:13", "all"):
                s = subspace_from_text(sig, target)
                fresh = {}
                for kind in CentralizerKind:
                    clear_every_cache()
                    fresh[kind] = brute_force_centralizer(sig, s, kind).mask
                clear_every_cache()
                for kind in order:
                    got = brute_force_centralizer(sig, s, kind).mask
                    assert got == fresh[kind], (sig, target, order, kind)


def cliffcent_caches():
    """Every functools cache bound in a cliffcent module, by qualified name."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cliffcent"):
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                caches[f"{name}.{attr}"] = value
    return caches


def case_records(cases):
    """``to_json_dict`` of each report, without its timing."""
    out = []
    for report in cases:
        record = report.to_json_dict()
        del record["elapsed_ms"]
        out.append(record)
    return out


class TestPerProcessCaches:
    """Targets, graded closed forms and the other per-signature pieces are
    built once per process, behind private names; the benchmark's reset
    empties them all, and no order of cases changes a report."""

    def test_the_benchmark_reset_empties_every_cache(self, capsys):
        main(["verify", "--max-dim", "2"])
        main(["table1", "--signature", "1,1,1"])
        main(["table1", "--signature", "1,1,1", "--format", "json"])
        capsys.readouterr()
        caches = cliffcent_caches()
        for name in ("_parsed", "_target", "_closed_form_grade", "_part_masks"):
            assert caches[f"cliffcent.centralizers.{name}"].cache_info().currsize
        for name in ("_qt_grades", "_sorted_blades"):
            assert caches[f"cliffcent.subspaces.{name}"].cache_info().currsize
        assert caches["cliffcent.blades._blades_json"].cache_info().currsize
        clear_every_cache()
        assert {name: cache.cache_info().currsize
                for name, cache in caches.items()} == dict.fromkeys(caches, 0)

    def test_no_name_the_tracer_wraps_is_a_cache(self):
        # the entry points perfbench/tracer.py replaces with span wrappers,
        # which carry no cache_clear for the reset to find, and
        # index_lists_json, whose blade text a tracer may time on its own
        wrapped = [getattr(centralizers, name) for name in (
            "closed_form_grade", "closed_form_small_grade",
            "closed_form_nondegenerate", "closed_form_qt",
            "closed_form_qt_pair", "center_closed_form",
            "verify_case", "brute_force_centralizer",
            "nullspace_centralizer_oracle")]
        wrapped += [subspaces.evaluate_spec, blade_product, _linalg.nullspace,
                    cli.main, index_lists_json]
        assert [fn.__name__ for fn in wrapped
                if hasattr(fn, "cache_clear")] == []

    def test_cold_forward_and_reversed_sweeps_agree(self):
        families = centralizers.SWEEP_TARGET_FAMILIES
        cases = [(sig, target, kind) for sig in all_signatures(5)
                 for target in sweep_targets(sig, families)
                 for kind in CentralizerKind]
        cold = []
        for case in cases:
            clear_every_cache()
            cold.append(verify_case(*case))
        clear_every_cache()
        forward = sweep_verify(5)
        clear_every_cache()
        backward = {}
        for sig in all_signatures(5):
            for target in reversed(sweep_targets(sig, families)):
                for kind in reversed(CentralizerKind):
                    backward[sig, target, kind] = verify_case(sig, target, kind)
        want = case_records(cold)
        assert len(want) == 2445
        assert case_records(forward) == want
        assert case_records(backward[case] for case in cases) == want


class TestClosedFormGrade:
    def test_known_values(self):
        sig = make_signature(3, 0, 1)
        assert closed_form_grade(sig, 1, HAT).blades == blades(sig, (), (4,))

        sig = make_signature(1, 0, 1)
        assert closed_form_grade(sig, 2, PLAIN).blades == \
            blades(sig, (), (2,), (1, 2))

        sig = make_signature(0, 0, 3)
        assert closed_form_grade(sig, 2, HAT).blades == \
            blades(sig, (), (1, 2), (1, 3), (2, 3), (1, 2, 3))

        sig = make_signature(2, 1, 0)
        assert closed_form_grade(sig, 3, PLAIN) == full_algebra(sig)

    def test_out_of_range_grades_give_full_algebra(self):
        sig = make_signature(0, 0, 3)
        for kind in CentralizerKind:
            assert closed_form_grade(sig, 4, kind) == full_algebra(sig)
            assert closed_form_grade(sig, -1, kind) == full_algebra(sig)

    def test_scalar_grade_conventions(self):
        sig = make_signature(2, 1, 0)
        assert closed_form_grade(sig, 0, PLAIN) == full_algebra(sig)
        assert closed_form_grade(sig, 0, TILDE) == full_algebra(sig)
        assert closed_form_grade(sig, 0, HAT) == \
            parity_part(full_algebra(sig), 0)

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_matches_brute_force_everywhere_small(self, kind):
        for sig in all_signatures(4):
            for m in range(sig.n + 1):
                got = closed_form_grade(sig, m, kind)
                want = brute_force_centralizer(sig, grade_subspace(sig, m), kind)
                assert got == want, (sig, m, kind)

    @pytest.mark.parametrize("n", [9, 10, 11, 12, 16])
    def test_matches_brute_force_past_eight_generators(self, n):
        # neither route reads the metric signs, so one Cl(n-r,0,r) per r
        # stands for every signature with that n and r
        for r in range(n + 1):
            sig = make_signature(n - r, 0, r)
            for m in range(n + 1):
                target = grade_subspace(sig, m)
                for kind in CentralizerKind:
                    want = brute_force_centralizer(sig, target, kind)
                    assert closed_form_grade(sig, m, kind) == want, (sig, m, kind)

    def test_builds_no_zero_product_term(self, monkeypatch):
        requested = []

        def recording(sig, k, lo, hi):
            term = nondeg_times_lambda(sig, k, lo, hi)
            requested.append((sig, k, lo, hi, term.dimension()))
            return term

        monkeypatch.setattr(centralizers, "nondeg_times_lambda", recording)
        clear_every_cache()  # grade forms are cached per process
        for sig in all_signatures(8):
            for m in range(sig.n + 1):
                for kind in CentralizerKind:
                    closed_form_grade(sig, m, kind)
        assert requested
        assert [t for t in requested if t[-1] == 0] == []

    def test_rejects_algebras_beyond_max_dim(self):
        # built directly, so make_signature's own bound does not apply
        sig = Signature(0, 0, MAX_DIM + 1)
        message = f"n <= {MAX_DIM}, got n = {MAX_DIM + 1}"
        for build in (lambda: closed_form_grade(sig, 2, PLAIN),
                      lambda: closed_form_grade(sig, 0, HAT),
                      lambda: grade_subspace(sig, 1),
                      lambda: full_algebra(sig),
                      lambda: blade_table(sig.n)):
            with pytest.raises(ValueError, match=message):
                build()


# Every signature with n <= 10, and eight near the bound n <= 16 that run
# both parity rows of the literal tables.
TABLE_SIGNATURES = all_signatures(10) + [make_signature(*pqr) for pqr in (
    (0, 0, 16), (8, 4, 4), (16, 0, 0), (1, 0, 15),
    (7, 0, 8), (0, 0, 15), (15, 0, 0), (1, 0, 14))]


class TestSmallGradeTable:
    def test_known_value(self):
        sig = make_signature(1, 0, 2)
        got = closed_form_small_grade(sig, 3, HAT)
        assert got.blades == blades(
            sig, (), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))

    def test_rejects_grades_outside_table(self):
        sig = make_signature(2, 0, 1)
        for m in (0, 5):
            with pytest.raises(ValueError):
                closed_form_small_grade(sig, m, PLAIN)
        with pytest.raises(ValueError):
            closed_form_small_grade(sig, 2, TILDE)

    @pytest.mark.parametrize("kind", [PLAIN, HAT])
    def test_matches_general_formula(self, kind):
        for sig in TABLE_SIGNATURES:
            for m in range(1, min(4, sig.n) + 1):
                got = closed_form_small_grade(sig, m, kind)
                want = closed_form_grade(sig, m, kind)
                assert got == want, (sig, m, kind)


class TestNondegenerateTable:
    def test_known_values(self):
        sig = make_signature(3, 0, 0)
        assert closed_form_nondegenerate(sig, 3, PLAIN) == full_algebra(sig)

        sig = make_signature(2, 0, 0)
        assert closed_form_nondegenerate(sig, 2, PLAIN).blades == \
            blades(sig, (), (1, 2))

        sig = make_signature(2, 1, 0)
        assert closed_form_nondegenerate(sig, 2, HAT).blades == blades(sig, ())

    def test_requires_nondegenerate_signature(self):
        with pytest.raises(ValueError):
            closed_form_nondegenerate(make_signature(1, 0, 1), 1, PLAIN)

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_matches_general_formula(self, kind):
        for sig in all_signatures(5):
            if sig.r:
                continue
            for m in range(sig.n + 1):
                got = closed_form_nondegenerate(sig, m, kind)
                want = closed_form_grade(sig, m, kind)
                assert got == want, (sig, m, kind)


class TestQuaternionTypeForms:
    def test_known_values(self):
        sig = make_signature(1, 0, 1)
        assert closed_form_qt(sig, 2, PLAIN).blades == \
            blades(sig, (), (2,), (1, 2))

        sig = make_signature(2, 0, 0)
        assert closed_form_qt(sig, 0, HAT).blades == blades(sig, (), (1, 2))

    def test_type_one_twisted_is_degenerate_exterior_algebra(self):
        for pqr in [(2, 0, 1), (1, 0, 2), (0, 1, 2)]:
            sig = make_signature(*pqr)
            got = closed_form_qt(sig, 1, HAT)
            degenerate = frozenset(
                b for b in all_blades(sig)
                if all(i > sig.p + sig.q for i in range(1, sig.n + 1)
                       if b >> (i - 1) & 1))
            assert got.blades == degenerate

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_matches_brute_force_small(self, kind):
        """Each type's form equals brute force for n <= 4, and each pair's
        table equals the intersection of its two types' forms."""
        for sig in all_signatures(4):
            for m in range(4):
                got = closed_form_qt(sig, m, kind)
                want = brute_force_centralizer(
                    sig, subspace_from_text(sig, f"qt:{m}"), kind)
                assert got == want, (sig, m, kind)
        for sig in TABLE_SIGNATURES:
            for k, m in centralizers._QT_PAIRS:
                want = intersect(closed_form_qt(sig, k, kind),
                                 closed_form_qt(sig, m, kind))
                assert centralizers._explicit_qt_pair(sig, (k, m), kind) == want, \
                    (sig, k, m)


class TestQuaternionTypePairs:
    def test_known_values(self):
        sig = make_signature(1, 0, 2)
        assert closed_form_qt_pair(sig, (0, 1), HAT).blades == \
            blades(sig, (), (2, 3))

        sig = make_signature(3, 0, 0)
        assert closed_form_qt_pair(sig, (1, 3), PLAIN).blades == \
            blades(sig, (), (1, 2, 3))

        sig = make_signature(2, 0, 1)
        assert closed_form_qt_pair(sig, (1, 3), TILDE).blades == \
            blades(sig, (), (3,))

    def test_pair_reduces_to_even_part_of_single_type(self):
        sig = make_signature(2, 1, 0)
        got = closed_form_qt_pair(sig, (0, 2), HAT)
        assert got == parity_part(closed_form_qt(sig, 2, PLAIN), 0)

    @staticmethod
    def patch_wrong_table(monkeypatch):
        """Brute force gives {e[], e[1,2,3]} for qt:13 of Cl(3,0,0)."""
        monkeypatch.setattr(centralizers, "_explicit_qt_pair",
                            lambda sig, pair, kind: Subspace.from_blades(sig, blades(
                                sig, (1, 3), (1, 2), (3,), (2,))))

    def test_disagreement_lists_blades_in_global_order(self, capsys, monkeypatch):
        self.patch_wrong_table(monkeypatch)
        assert main(["centralizer", "--signature", "3,0,0",
                     "--subspace", "qt:13", "--kind", "plain"]) == 2
        assert capsys.readouterr().out.splitlines()[2:] == [
            "closed form: MISMATCH",
            "  qt_pair_only_brute: e[], e[1,2,3]",
            "  qt_pair_only_closed: e[2], e[3], e[1,2], e[1,3]"]

    def test_disagreement_is_named_in_json(self, capsys, monkeypatch):
        self.patch_wrong_table(monkeypatch)
        assert main(["centralizer", "--signature", "3,0,0", "--subspace",
                     "qt:13", "--kind", "plain", "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is False
        assert payload["diff"] == {
            "qt_pair_only_brute": ["e[]", "e[1,2,3]"],
            "qt_pair_only_closed": ["e[2]", "e[3]", "e[1,2]", "e[1,3]"]}
        assert payload["blades"] == [[], [1, 2, 3]]

    def test_pair_order_is_normalized(self):
        sig = make_signature(2, 0, 0)
        assert closed_form_qt_pair(sig, (3, 1), PLAIN) == \
            closed_form_qt_pair(sig, (1, 3), PLAIN)

    def test_rejects_malformed_pairs(self):
        sig = make_signature(2, 0, 0)
        for pair in [(1, 1), (0, 4), (2, 2)]:
            with pytest.raises(ValueError):
                closed_form_qt_pair(sig, pair, PLAIN)

    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_matches_brute_force_small(self, kind):
        for sig in all_signatures(4):
            for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
                got = closed_form_qt_pair(sig, pair, kind)
                want = brute_force_centralizer(
                    sig, subspace_from_text(sig, f"qt:{pair[0]}{pair[1]}"),
                    kind)
                assert got == want, (sig, pair, kind)


class TestAssembleAudit:
    def test_accepts_disjoint_parts(self):
        sig = make_signature(2, 0, 0)
        got = _assemble(sig, [grade_subspace(sig, 0), grade_subspace(sig, 2)])
        assert got.blades == blades(sig, (), (1, 2))

    def test_allows_repeated_pseudoscalar_only(self):
        sig = make_signature(2, 0, 0)
        pseudo = grade_subspace(sig, 2)
        got = _assemble(sig, [pseudo, pseudo, grade_subspace(sig, 0)])
        assert got.blades == blades(sig, (), (1, 2))

    def test_rejects_other_overlap(self):
        sig = make_signature(2, 0, 0)
        with pytest.raises(RuntimeError, match="e\\["):
            _assemble(sig, [grade_subspace(sig, 1), full_algebra(sig)])


class TestVerifyCase:
    def test_single_grade_target_runs_all_routes(self):
        sig = make_signature(2, 0, 0)
        report = verify_case(sig, "grade:2", PLAIN)
        assert report.match
        assert set(report.matches) == \
            {"closed_form", "small_grade", "nondegenerate", "nullspace"}
        assert report.diff == {}
        assert report.brute_blades == report.closed_blades
        assert report.nullspace_dim == len(report.brute_blades)

    def test_degenerate_signature_skips_nondegenerate_route(self):
        sig = make_signature(1, 0, 1)
        report = verify_case(sig, "grade:1", HAT)
        assert report.match
        assert "nondegenerate" not in report.matches
        assert {"closed_form", "small_grade", "nullspace"} <= set(report.matches)

    def test_plain_lambda_target_has_no_formula(self):
        sig = make_signature(1, 0, 2)
        report = verify_case(sig, "lambda:1", PLAIN)
        assert report.closed_blades is None
        assert set(report.matches) == {"nullspace"}
        assert report.match

    def test_composite_target_intersects_formulas(self):
        sig = make_signature(1, 1, 1)
        report = verify_case(sig, "grade:1+grade:2", TILDE)
        assert report.match
        assert "closed_form" in report.matches

    def test_huge_grade_range_builds_at_most_n_plus_one_grade_forms(
            self, monkeypatch):
        sig = make_signature(4, 0, 0)
        want = verify_case(sig, "grade:0..4", PLAIN, with_nullspace=False)
        calls = []

        def counting(sig, m, kind):
            calls.append(m)
            assert len(calls) <= sig.n + 1, "a grade form beyond grade n"
            return closed_form_grade(sig, m, kind)

        monkeypatch.setattr(centralizers, "closed_form_grade", counting)
        report = verify_case(sig, "grade:0..1000000000", PLAIN,
                             with_nullspace=False)
        assert report.match
        assert report.brute_blades == want.brute_blades
        assert report.closed_blades == want.closed_blades

    def test_an_unknown_atom_is_refused(self):
        spec = SubspaceSpec((("nope", 1),), "nope:1")
        with pytest.raises(ValueError,
                           match=re.escape("unhandled atom ('nope', 1)")):
            verify_case(make_signature(1, 1, 1), spec, PLAIN)

    @pytest.mark.parametrize("target", ["grade:3..1", "grade:5..9"])
    @pytest.mark.parametrize("kind", list(CentralizerKind))
    def test_empty_grade_range_adds_no_condition(self, target, kind):
        # descending, or above n = 4: the range spans nothing
        sig = make_signature(2, 1, 1)
        report = verify_case(sig, target, kind)
        assert report.match, report.diff
        assert set(report.matches) == {"closed_form", "nullspace"}
        assert len(report.brute_blades) == report.nullspace_dim == 16
        assert report.closed_blades == full_algebra(sig).sorted_blades()

    @pytest.mark.parametrize("target, closed, key, want", [
        ("grade:0", [(), (2,), (1, 3)], "closed_form_only_brute",
         ["e[1]", "e[3]", "e[1,2]", "e[2,3]", "e[1,2,3]"]),
        ("grade:1", [(), (3,), (1, 2), (1, 2, 3)], "closed_form_only_closed",
         ["e[3]", "e[1,2]"]),
    ])
    def test_diff_lists_blades_in_global_order(self, monkeypatch, target,
                                               closed, key, want):
        sig = make_signature(3, 0, 0)
        monkeypatch.setattr(centralizers, "closed_form_grade",
                            lambda sig, m, kind: Subspace.from_blades(sig, blades(sig, *closed)))
        report = verify_case(sig, target, PLAIN, with_nullspace=False)
        assert report.matches["closed_form"] is False
        assert report.diff[key] == want

    def test_oracle_diff_names_the_blades(self, monkeypatch):
        # the centralizer of the bivectors of Cl(3,0,0) is e[], e[1,2,3]
        sig = make_signature(3, 0, 0)
        wrong = [Multivector.basis_blade(sig, b)
                 for b in sorted(blades(sig, (2, 3), (3,), ()), reverse=True)]
        monkeypatch.setattr(centralizers, "nullspace_centralizer_oracle",
                            lambda sig, s, kind: (len(wrong), wrong))
        report = verify_case(sig, "grade:2", PLAIN, with_nullspace=True)
        assert report.matches == {"closed_form": True, "small_grade": True,
                                  "nondegenerate": True, "nullspace": False}
        assert report.diff == {"nullspace_only_brute": ["e[1,2,3]"],
                               "nullspace_only_oracle": ["e[3]", "e[2,3]"]}
        assert json.loads(json.dumps(report.to_json_dict()))["diff"] == {
            "nullspace_only_brute": ["e[1,2,3]"],
            "nullspace_only_oracle": ["e[3]", "e[2,3]"]}

    def test_oracle_dimension_is_checked_with_its_support(self, monkeypatch):
        original = centralizers.nullspace_centralizer_oracle

        def one_dimension_too_many(sig, s, kind):
            dim, basis = original(sig, s, kind)  # its support is brute force's
            return dim + 1, basis

        monkeypatch.setattr(centralizers, "nullspace_centralizer_oracle",
                            one_dimension_too_many)
        report = verify_case(make_signature(3, 0, 0), "grade:2", PLAIN,
                             with_nullspace=True)
        assert report.matches["nullspace"] is False
        assert report.diff == {"nullspace_only_brute": [],
                               "nullspace_only_oracle": []}

    def test_nullspace_opt_out(self):
        sig = make_signature(1, 1, 0)
        report = verify_case(sig, "grade:1", PLAIN, with_nullspace=False)
        assert report.nullspace_dim is None
        assert "nullspace" not in report.matches
        assert report.match

    def test_json_round_trip_keys(self):
        sig = make_signature(1, 0, 1)
        payload = verify_case(sig, "qt:2", TILDE).to_json_dict()
        assert payload["signature"] == {"p": 1, "q": 0, "r": 1}
        assert payload["kind"] == "tilde"
        assert payload["match"] is True
        rebuilt = frozenset(blade_from_indices(ix)
                            for ix in payload["brute_blades"])
        assert rebuilt == blades(sig, (), (2,), (1, 2))

    def test_whole_algebra_matches_for_every_kind(self):
        # plain reads the center formula; hat and tilde intersect grade forms
        sigs = all_signatures(5)
        assert len(sigs) == 55
        for sig in sigs:
            for kind in CentralizerKind:
                report = verify_case(sig, "all", kind)
                assert report.match, (sig, kind, report.diff)
                assert set(report.matches) == {"closed_form", "nullspace"}


class TestMalformedInput:
    """A target that is not a spec, a signature that is not a
    ``Signature``, or a grade, type or bound that is not an int, is refused
    with a ``ValueError`` that names it, and leaves nothing behind that a
    valid call could trip on."""

    GRADE_1 = parse_subspace_spec("grade:1")

    @pytest.mark.parametrize("call, named", [
        (lambda sig: verify_case(sig, 5, PLAIN), "5"),
        (lambda sig: verify_case(sig, None, HAT), "None"),
        (lambda sig: verify_case(sig, b"grade:1", TILDE), "b'grade:1'"),
        (lambda sig: verify_case((2, 0, 1), "grade:1", PLAIN), "(2, 0, 1)"),
        (lambda sig: verify_case(sig, ["grade:1"], PLAIN), "['grade:1']"),
        (lambda sig: verify_case(sig, {"grade:1"}, HAT), "{'grade:1'}"),
        (lambda sig: verify_case([2, 0, 1], "grade:1", TILDE), "[2, 0, 1]"),
        (lambda sig: evaluate_spec(sig, "grade:1"), "'grade:1'"),
        (lambda sig: evaluate_spec((2, 0, 1), TestMalformedInput.GRADE_1),
         "(2, 0, 1)"),
        (lambda sig: verify_case(sig, SubspaceSpec([("grade", 1)], "grade:1"),
                                 PLAIN), "[('grade', 1)]"),
        (lambda sig: verify_case(sig, SubspaceSpec((("grade", 1),), 5), HAT),
         "5"),
        (lambda sig: verify_case(sig, SubspaceSpec((["grade", 1],), "grade:1"),
                                 TILDE), "(['grade', 1],)"),
        (lambda sig: closed_form_grade(sig, 1.0, PLAIN), "1.0"),
        (lambda sig: closed_form_small_grade(sig, 2.0, HAT), "2.0"),
        (lambda sig: closed_form_nondegenerate(make_signature(2, 0, 0), 1.5,
                                               PLAIN), "1.5"),
        (lambda sig: closed_form_qt(sig, True, TILDE), "True"),
        (lambda sig: closed_form_qt(sig, "1", PLAIN), "'1'"),
        (lambda sig: closed_form_qt_pair(sig, (1, "3"), PLAIN), "'3'"),
        (lambda sig: sweep_verify(True), "True"),
    ])
    def test_raises_value_error_then_a_valid_call_works(self, call, named):
        sig = make_signature(2, 0, 1)
        with pytest.raises(ValueError, match=re.escape(named)):
            call(sig)
        assert evaluate_spec(sig, self.GRADE_1) == grade_subspace(sig, 1)
        report = verify_case(sig, "grade:1", PLAIN)
        assert report.match
        assert set(report.matches) == {"closed_form", "small_grade", "nullspace"}


@pytest.mark.parametrize("route", [brute_force_centralizer,
                                   nullspace_centralizer_oracle])
def test_a_route_refuses_a_subspace_of_another_signature(route):
    s = grade_subspace(make_signature(2, 0, 1), 1)
    with pytest.raises(ValueError, match="does not belong"):
        route(make_signature(1, 1, 1), s, PLAIN)


def flip_one_blade(original):
    """``_closed_forms_for_target`` plus a form named ``flipped``: brute
    force's mask with the pseudoscalar flipped."""

    def with_flipped(sig, spec, kind):
        forms = original(sig, spec, kind)
        brute = brute_force_centralizer(sig, evaluate_spec(sig, spec), kind)
        forms["flipped"] = Subspace(sig, brute.mask ^ 1 << sig.full_mask)
        return forms

    return with_flipped


def with_extra_blade(sig, dim, basis):
    """One more basis element: the first blade outside the support."""
    support = {b for mv in basis for b in mv.blades()}
    extra = next(x for x in range(1 << sig.n) if x not in support)
    return dim + 1, basis + [Multivector.basis_blade(sig, extra)]


# Oracle outputs edited after the fact, and whether each still spans
# brute force's blades.
ORACLE_EDITS = {
    "unchanged": (lambda sig, dim, basis: (dim, basis), True),
    "dimension_plus_one": (lambda sig, dim, basis: (dim + 1, basis), False),
    "dropped_blade": (lambda sig, dim, basis: (dim - 1, basis[:-1]), False),
    "extra_blade": (with_extra_blade, False),
    "duplicated_element": (
        lambda sig, dim, basis: (dim, basis[:-1] + basis[:1]), False),
    "empty_basis": (lambda sig, dim, basis: (0, []), False),
}


class TestOneComparisonLoop:
    """Every leg, each closed form and the oracle, is matched and diffed by
    one loop, so a new leg needs no edit to ``verify_case``, and the
    oracle's verdict there is ``nullspace_matches_blades``'s."""

    def test_an_added_form_is_named_in_the_report(self, monkeypatch):
        monkeypatch.setattr(centralizers, "_closed_forms_for_target",
                            flip_one_blade(centralizers._closed_forms_for_target))
        report = verify_case(make_signature(3, 0, 0), "grade:2", PLAIN)
        assert report.matches == {"closed_form": True, "small_grade": True,
                                  "nondegenerate": True, "flipped": False,
                                  "nullspace": True}
        assert report.diff == {"flipped_only_brute": ["e[1,2,3]"],
                               "flipped_only_closed": []}

    def test_an_added_form_is_named_in_text_and_json(self, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(centralizers, "_closed_forms_for_target",
                            flip_one_blade(centralizers._closed_forms_for_target))
        argv = ["verify", "--max-dim", "2", "--targets", "grades",
                "--kinds", "plain"]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("MISMATCH Cl(1,0,0) plain grade:0 (2 blades)")
        assert lines[at + 1] == "  flipped_only_brute: e[1]"
        at = lines.index("MISMATCH Cl(2,0,0) plain grade:1 (1 blades)")
        assert lines[at + 1] == "  flipped_only_closed: e[1,2]"
        assert lines[-1] == "FAIL: 24 cases, 24 mismatches"
        assert main(argv + ["--format", "json"]) == 2
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 24
        for record in records:
            assert list(record["matches"])[-2:] == ["flipped", "nullspace"]
            assert record["matches"]["flipped"] is False
            assert list(record["diff"]) == ["flipped_only_brute",
                                            "flipped_only_closed"]
            top = format_blade(make_signature(**record["signature"]).full_mask)
            assert (record["diff"]["flipped_only_brute"]
                    + record["diff"]["flipped_only_closed"]) == [top]

    @pytest.mark.parametrize("edit", sorted(ORACLE_EDITS))
    @pytest.mark.parametrize("pqr, target, kind", [
        ((3, 0, 0), "grade:2", PLAIN), ((2, 1, 1), "qt:13", HAT),
        ((1, 0, 2), "lambda:1", PLAIN)])
    def test_oracle_verdict_is_nullspace_matches_blades(
            self, monkeypatch, edit, pqr, target, kind):
        sig = make_signature(*pqr)
        s = subspace_from_text(sig, target)
        change, want = ORACLE_EDITS[edit]
        original = centralizers.nullspace_centralizer_oracle
        dim, basis = change(sig, *original(sig, s, kind))
        brute = brute_force_centralizer(sig, s, kind)
        assert nullspace_matches_blades(dim, basis, brute.blades) is want
        monkeypatch.setattr(centralizers, "nullspace_centralizer_oracle",
                            lambda sig, s, kind: change(sig, *original(sig, s, kind)))
        report = verify_case(sig, target, kind, with_nullspace=True)
        assert report.matches["nullspace"] is want
        assert report.nullspace_dim == dim
        assert ("nullspace_only_brute" in report.diff) is not want


class TestReportJson:
    """``report_json`` writes exactly ``json.dumps(to_json_dict())``."""

    @staticmethod
    def assert_written_as_dumps(report):
        assert report_json(report) == json.dumps(report.to_json_dict())

    def test_every_record_of_a_sweep_with_the_oracle_leg(self):
        reports = sweep_verify(6)
        assert len(reports) == 3873
        assert all("nullspace" in r.matches for r in reports)
        for report in reports:
            self.assert_written_as_dumps(report)

    def test_a_target_without_closed_form(self):
        report = verify_case(make_signature(1, 0, 2), "lambda:1", PLAIN)
        assert report.closed_blades is None
        self.assert_written_as_dumps(report)

    def test_without_the_oracle_leg(self):
        report = verify_case(make_signature(2, 1, 1), "qt:13", HAT,
                             with_nullspace=False)
        assert report.nullspace_dim is None
        self.assert_written_as_dumps(report)

    def test_a_mismatch_with_its_diff(self, monkeypatch):
        monkeypatch.setattr(centralizers, "center_closed_form", full_algebra)
        report = verify_case(make_signature(2, 0, 0), "all", PLAIN)
        assert report.closed_blades != report.brute_blades
        assert report.diff["closed_form_only_closed"] == ["e[1]", "e[2]", "e[1,2]"]
        self.assert_written_as_dumps(report)

    @pytest.mark.parametrize("elapsed_ms", [0.0, 1e-05, 123456.789, 1e16])
    def test_elapsed_ms(self, elapsed_ms):
        report = verify_case(make_signature(1, 1, 0), "grade:1", TILDE)
        self.assert_written_as_dumps(
            dataclasses.replace(report, elapsed_ms=elapsed_ms))


class TestSharedBladeTuples:
    """A report's blade tuples come from the per-(n, mask) cache below
    ``Subspace.sorted_blades``, so agreeing routes, and every report with
    the same blades, hold one tuple.  That sharing keeps the reports of a
    long sweep small (``verify --max-dim 10`` peaks at about 43 MiB)."""

    def test_every_report_of_a_sweep_shares_its_tuples(self):
        first = {}
        for r in sweep_verify(6):
            assert (r.closed_blades is r.brute_blades) is r.matches["closed_form"]
            key = (r.signature.n, r.brute_blades)
            assert first.setdefault(key, r.brute_blades) is r.brute_blades

    def test_formula_free_targets_have_no_closed_tuple(self):
        for pqr, target, kind in itertools.product(
                [(1, 0, 2), (0, 0, 3), (2, 1, 3)],
                ["lambda:1", "grade:0..2+lambda:3"], CentralizerKind):
            report = verify_case(make_signature(*pqr), target, kind)
            assert "closed_form" not in report.matches
            assert report.closed_blades is None


class TestKindIsChecked:
    """A kind that is not a ``CentralizerKind``, such as the CLI's value
    string, is refused where it enters each route."""

    @pytest.mark.parametrize("route", [
        "closed_form_grade", "closed_form_qt", "closed_form_qt_pair",
        "closed_form_nondegenerate", "closed_form_small_grade",
        "brute_force_centralizer", "nullspace_centralizer_oracle"])
    @pytest.mark.parametrize("kind", ["plain", "hat", None, 0])
    def test_public_route_refuses(self, route, kind):
        sig = make_signature(2, 0, 1)
        scalars = grade_subspace(sig, 0)
        call = {
            "closed_form_grade": lambda: closed_form_grade(sig, 2, kind),
            "closed_form_qt": lambda: closed_form_qt(sig, 2, kind),
            "closed_form_qt_pair": lambda: closed_form_qt_pair(sig, (1, 2), kind),
            "closed_form_nondegenerate": lambda: closed_form_nondegenerate(
                make_signature(2, 0, 0), 2, kind),
            "closed_form_small_grade": lambda: closed_form_small_grade(sig, 2, kind),
            "brute_force_centralizer": lambda: brute_force_centralizer(
                sig, scalars, kind),
            "nullspace_centralizer_oracle": lambda: nullspace_centralizer_oracle(
                sig, scalars, kind),
        }[route]
        with pytest.raises(ValueError) as caught:
            call()
        if route != "closed_form_small_grade":  # it keeps its own message
            assert repr(kind) in str(caught.value)

    def test_sweep_refuses_a_value_string(self):
        with pytest.raises(ValueError, match="'plain'"):
            sweep_verify(2, kinds=["plain"])


class TestSweep:
    def test_signature_enumeration(self):
        sigs = all_signatures(7)
        assert len(sigs) == 119
        assert len(set(sigs)) == 119
        assert all(1 <= s.n <= 7 for s in sigs)
        assert sigs == sorted(sigs, key=lambda s: (s.n, s.p, s.q))

    def test_small_sweep_is_clean_and_deterministic(self):
        def stable(report):
            payload = report.to_json_dict()
            payload.pop("elapsed_ms")
            return payload

        first = sweep_verify(2, targets=("grades",))
        second = sweep_verify(2, targets=("grades",))
        assert [stable(r) for r in first] == [stable(r) for r in second]
        total, mismatches = summarize(first)
        # 3 signatures with n=1 and 6 with n=2, each verified for every
        # grade target and all three kinds.
        assert total == (3 * 2 + 6 * 3) * 3
        assert mismatches == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sweep_verify(11)
        with pytest.raises(ValueError):
            sweep_verify(2, targets=("nonsense",))

    @pytest.mark.parametrize("max_n", [0, -3, SWEEP_MAX_DIM + 1])
    def test_rejects_bound_outside_range(self, max_n):
        with pytest.raises(ValueError, match=f"in 1..{SWEEP_MAX_DIM}, got"):
            sweep_verify(max_n)

    # True would otherwise enumerate the n = 1 signatures
    @pytest.mark.parametrize("max_n", [True, 2.5])
    def test_enumeration_refuses_a_bound_that_is_not_an_int(self, max_n):
        with pytest.raises(ValueError,
                           match=rf"^max_n must be an int, got {max_n!r}$"):
            all_signatures(max_n)


class TestTable1:
    @pytest.mark.parametrize("pqr", [(0, 0, 1), (2, 0, 0), (1, 1, 1),
                                     (0, 0, 3), (2, 0, 2)])
    def test_all_rows_match(self, pqr):
        rows = table1_rows(make_signature(*pqr))
        assert len(rows) == 14
        assert all(isinstance(row, Table1Row) for row in rows)
        assert all(row.match for row in rows), \
            [row.label for row in rows if not row.match]

    def test_labels_are_unique_and_json_ready(self):
        rows = table1_rows(make_signature(1, 0, 1))
        labels = [row.label for row in rows]
        assert len(set(labels)) == 14
        payload = rows[0].to_json_dict()
        assert set(payload) == {"target", "kind", "target_specs",
                                "reduction", "blades", "match"}

    @staticmethod
    def named_form(sig, reduction):
        """The subspace a reduction label names: ``Z``/``Zh`` is the plain
        or hat closed form of the grade after ``^``, ``<...>_(0)`` its even
        part and ``n`` an intersection."""
        if reduction == "Z (center)":
            return center_closed_form(sig)
        parts = []
        for term in reduction.split(" n "):
            even, name, m = re.fullmatch(r"(<?)(Zh?)\^(\d)(?:>_\(0\))?", term).groups()
            form = closed_form_grade(sig, int(m), HAT if name == "Zh" else PLAIN)
            parts.append(parity_part(form, 0) if even else form)
        return functools.reduce(intersect, parts)

    def test_every_reduction_is_its_named_form(self):
        sigs = all_signatures(SWEEP_MAX_DIM)
        assert len(sigs) == 285
        for sig in sigs:
            rows = table1_rows(sig)
            assert len({row.reduction for row in rows}) == 14
            for row in rows:
                assert row.subspace == self.named_form(sig, row.reduction), \
                    (sig, row.label, row.reduction)

    @pytest.mark.parametrize("kind", [PLAIN, HAT])
    def test_rows_are_the_groups_of_equal_centralizers(self, kind):
        """The four types and six pairs, grouped by their brute-force masks
        at one Cl(n - r, 0, r) per (n, r) class with n <= 10: each row of
        the kind is one group, and each group is a row.  Brute force reads
        no metric sign, so the class representative stands for the class."""
        classes = [make_signature(n - r, 0, r)
                   for n in range(1, SWEEP_MAX_DIM + 1) for r in range(n + 1)]
        assert len(classes) == 65
        groups = {}
        for target in sweep_targets(classes[0], ("qtypes", "pairs")):
            key = tuple(brute_force_centralizer(
                sig, subspace_from_text(sig, target), kind).mask for sig in classes)
            groups.setdefault(key, []).append(target)
        rows = [sorted(targets) for kind_name, _, targets, _
                in centralizers._TABLE1_LAYOUT if kind_name == kind.value]
        assert len(rows) == {PLAIN: 5, HAT: 9}[kind]
        assert sorted(map(sorted, groups.values())) == sorted(rows)

    def test_builds_only_the_closed_form(self, monkeypatch):
        sig = make_signature(7, 0, 8)
        calls = []
        original = centralizers._explicit_qt_pair

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(centralizers, "_explicit_qt_pair", counting)
        rows = table1_rows(sig)
        assert calls == []
        assert len(rows) == 14 and all(row.match for row in rows)
        for row in rows:
            forms = centralizers._closed_forms_for_target(
                sig, parse_subspace_spec(row.targets[0]), row.kind)
            assert row.subspace == forms["closed_form"], row.label
        # the qt_pair leg of the six rows led by a pair still builds it
        assert len(calls) == 6

    def test_multi_target_rows_check_every_equality(self):
        rows = table1_rows(make_signature(2, 1, 0))
        by_label = {row.label: row for row in rows}
        quad = by_label["Z[qt:1] = Z[qt:01] = Z[qt:12] = Z[qt:13]"]
        assert len(quad.targets) == 4
        assert len(quad.matches) == 4
        assert quad.reduction == "Z (center)"
        assert quad.subspace == center_closed_form(make_signature(2, 1, 0))
