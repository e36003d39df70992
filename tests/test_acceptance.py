"""Acceptance gate: the eight verification contracts, each one test.

Every check is exact (integer/rational arithmetic; blade-set equality).
Each test finishes by printing a single PASS line summarizing the scope
actually covered, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.
"""

import json
import random
import time
from fractions import Fraction

from cliffcent.blades import (
    CommuteClass,
    all_blades,
    blade_from_indices,
    blade_grade,
    blade_product,
    commute_class,
    hat_sign,
    make_signature,
)
from cliffcent.centralizers import (
    CentralizerKind,
    _explicit_qt_pair,
    all_signatures,
    brute_force_centralizer,
    closed_form_grade,
    closed_form_nondegenerate,
    closed_form_qt,
    closed_form_qt_pair,
    closed_form_small_grade,
    nullspace_centralizer_oracle,
    nullspace_matches_blades,
    table1_rows,
)
from cliffcent.cli import main
from cliffcent.multivector import (
    Multivector,
    adjoint_hat,
    inverse_of,
    is_invertible,
)
from cliffcent.subspaces import (
    full_algebra,
    grade_subspace,
    lambda_subspace,
    nondeg_grade_subspace,
    parity_part,
    parity_subspace,
    subspace_from_text,
)

PLAIN = CentralizerKind.PLAIN
HAT = CentralizerKind.GRADE_TWISTED
TILDE = CentralizerKind.MIX_TWISTED
QT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def grade_centralizer(sig, m, kind):
    """Brute-force centralizer of Cl^m, cached by brute force itself per
    (signature, subspace); full algebra outside [0,n]."""
    return brute_force_centralizer(sig, grade_subspace(sig, m), kind)


# -- criterion 1: closed-form grade centralizers vs brute force -----------------

def test_criterion_1_grade_formulas_match_brute_force_everywhere():
    started = time.perf_counter()
    sigs = all_signatures(7)
    # Every (p,q,r) with 1 <= p+q+r <= 7: sum of C(n+2,2) for n=1..7.
    assert len(sigs) == 119
    assert len(set(sigs)) == 119
    cases = 0
    for sig in sigs:
        for m in range(sig.n + 1):
            brute = {kind: grade_centralizer(sig, m, kind)
                     for kind in CentralizerKind}
            for kind in CentralizerKind:
                formula = closed_form_grade(sig, m, kind)
                assert formula.blades == brute[kind].blades, (sig, m, kind)
                cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 2247
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: closed-form grade centralizers equal brute "
          f"force for all 119 signatures with n<=7, every grade, all three "
          f"kinds ({cases} cases, {elapsed:.1f}s)")


# -- criterion 2: rational-nullspace oracle triangulation ------------------------

def test_criterion_2_nullspace_oracle_matches_brute_force():
    started = time.perf_counter()
    cases = 0
    for sig in all_signatures(6):
        for m in range(sig.n + 1):
            target = grade_subspace(sig, m)
            for kind in CentralizerKind:
                brute = grade_centralizer(sig, m, kind)
                dim, basis = nullspace_centralizer_oracle(sig, target, kind)
                assert nullspace_matches_blades(dim, basis, brute.blades), \
                    (sig, m, kind)
                cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 1383
    assert elapsed < 120.0
    print(f"\nPASS criterion 2: exact nullspace oracle dimension and span "
          f"equal the brute-force blade set for all grade targets, n<=6 "
          f"({cases} cases, {elapsed:.1f}s)")


# -- criterion 3: quaternion-type and type-pair formulas -------------------------

def test_criterion_3_quaternion_type_suite():
    started = time.perf_counter()
    cases = 0
    for sig in all_signatures(7):
        for kind in CentralizerKind:
            for m in range(4):
                target = subspace_from_text(sig, f"qt:{m}")
                formula = closed_form_qt(sig, m, kind)
                brute = brute_force_centralizer(sig, target, kind)
                assert formula.blades == brute.blades, (sig, m, kind)
                cases += 1
            for k, m in QT_PAIRS:
                target = subspace_from_text(sig, f"qt:{k}{m}")
                # the defining intersection, and the paper's table of pairs
                formula = closed_form_qt_pair(sig, (k, m), kind)
                table = _explicit_qt_pair(sig, (k, m), kind)
                brute = brute_force_centralizer(sig, target, kind)
                assert formula.blades == brute.blades, (sig, (k, m), kind)
                assert table.blades == brute.blades, (sig, (k, m), kind)
                cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 119 * 30
    print(f"\nPASS criterion 3: all four quaternion-type and six type-pair "
          f"closed forms and the pair table equal brute force for n<=7, "
          f"all kinds "
          f"({cases} cases, {elapsed:.1f}s)")


# -- criterion 4: specialized tables agree with the general formulas -------------

def test_criterion_4_specializations_are_consistent():
    started = time.perf_counter()
    nondeg_cases = grassmann_cases = small_cases = 0

    # Non-degenerate table vs general formula vs brute force (r = 0).
    for sig in all_signatures(7):
        if sig.r:
            continue
        for m in range(sig.n + 1):
            for kind in CentralizerKind:
                table = closed_form_nondegenerate(sig, m, kind)
                assert table == closed_form_grade(sig, m, kind), (sig, m, kind)
                assert table.blades == grade_centralizer(sig, m, kind).blades
                nondeg_cases += 1

    # Exterior-algebra forms vs brute force (r = n).
    for n in range(1, 8):
        sig = make_signature(0, 0, n)
        for m in range(1, n + 1):
            for kind in (PLAIN, HAT):
                formula = closed_form_grade(sig, m, kind)
                assert formula.blades == grade_centralizer(sig, m, kind).blades
                grassmann_cases += 1

    # Small-grade table vs the general formula (1 <= m <= 4).
    for sig in all_signatures(7):
        for m in range(1, min(4, sig.n) + 1):
            for kind in (PLAIN, HAT):
                assert closed_form_small_grade(sig, m, kind) == \
                    closed_form_grade(sig, m, kind), (sig, m, kind)
                small_cases += 1

    elapsed = time.perf_counter() - started
    print(f"\nPASS criterion 4: non-degenerate table ({nondeg_cases} cases), "
          f"exterior-algebra forms ({grassmann_cases} cases), and small-grade "
          f"table ({small_cases} cases) all agree with the general route "
          f"({elapsed:.1f}s)")


# -- criterion 5: structural laws of the centralizer filtration ------------------

def _check_odd_part_inclusions(sig):
    for m in range(0, sig.n, 2):   # even m: twisted odd parts grow
        small = parity_part(grade_centralizer(sig, m, HAT), 1)
        large = parity_part(grade_centralizer(sig, m + 1, HAT), 1)
        assert small.blades <= large.blades, (sig, m, "hat odd part")
    for m in range(1, sig.n, 2):   # odd m: plain odd parts grow
        small = parity_part(grade_centralizer(sig, m, PLAIN), 1)
        large = parity_part(grade_centralizer(sig, m + 1, PLAIN), 1)
        assert small.blades <= large.blades, (sig, m, "plain odd part")


def _check_even_part_growth(sig):
    # Plain centralizers of odd grades sit inside the next grade's.
    for m in range(1, sig.n + 1, 2):
        assert grade_centralizer(sig, m, PLAIN).blades <= \
            grade_centralizer(sig, m + 1, PLAIN).blades, (sig, m)
    # Twisted even parts grow with the grade, except that when n is even
    # the pseudoscalar may drop out (blade-level set difference).
    for m in range(2, sig.n + 1, 2):
        small = parity_part(grade_centralizer(sig, m, HAT), 0).blades
        large = parity_part(grade_centralizer(sig, m + 1, HAT), 0).blades
        if sig.n % 2 == 0:
            small = small - {sig.full_mask}
        assert small <= large, (sig, m, "hat even part")


def _check_product_parity_table(sig):
    """(KL)M commutes plainly or up to grade involution, by parity.

    K runs over blades on the non-degenerate generators, L over blades on
    the degenerate generators with grade n - m, M over grade-m blades.
    """
    checked = 0
    n = sig.n
    for m in range(n + 1):
        lam = lambda_subspace(sig, n - m)
        if not lam.blades:
            continue
        m_blades = grade_subspace(sig, m).blades
        for k in range(sig.p + sig.q + 1):
            plain = (m % 2 == 0 and k % 2 == 0) or \
                (m % 2 == 1 and k % 2 == 1 and n % 2 == 1)
            hat = (m % 2 == 1 and k % 2 == 0) or \
                (m % 2 == 0 and n % 2 == 0 and k % 2 == 1)
            if not (plain or hat):
                continue
            for kb in nondeg_grade_subspace(sig, k).blades:
                for lb in lam.blades:
                    kl = blade_product(sig, kb, lb)
                    assert kl.sign != 0
                    for mb in m_blades:
                        lhs = blade_product(sig, kl.blade, mb)
                        rhs = blade_product(sig, mb, kl.blade)
                        if plain:
                            assert lhs == rhs, (sig, kb, lb, mb)
                        else:
                            assert lhs.blade == rhs.blade and \
                                lhs.sign == hat_sign(kl.blade) * rhs.sign, \
                                (sig, kb, lb, mb)
                        checked += 1
    return checked


def _check_filtration_inclusions(sig):
    n = sig.n
    for m in range(1, n - 1):
        for kind in (PLAIN, HAT):
            assert grade_centralizer(sig, m, kind).blades <= \
                grade_centralizer(sig, m + 2, kind).blades, (sig, m, kind)
    for m in range(1, n + 1, 2):
        assert grade_centralizer(sig, m, HAT).blades <= \
            grade_centralizer(sig, m + 1, PLAIN).blades, (sig, m)
    for m in range(2, n + 1, 2):
        assert grade_centralizer(sig, m, HAT).blades <= \
            grade_centralizer(sig, m + 2, PLAIN).blades, (sig, m)
    quad = grade_centralizer(sig, 4, PLAIN)
    for m in (1, 2, 3):
        for kind in (PLAIN, HAT):
            assert grade_centralizer(sig, m, kind).blades <= quad.blades, \
                (sig, m, kind)
    # Sufficiently non-degenerate targets stabilize at grade 1 or 2.
    for m in range(1, n + 1):
        if sig.r > n - (m + 1):
            continue
        base = 1 if m % 2 else 2
        for kind in (PLAIN, HAT):
            assert grade_centralizer(sig, m, kind) == \
                grade_centralizer(sig, base, kind), (sig, m, kind)


def _check_degenerate_product_facts(sig):
    """Blades on degenerate generators commute with everything of suitable
    parity: xv = vx when either grade is even, hat(x)v = vx when both odd;
    nonzero products have additive grades."""
    checked = 0
    deg_blades = [b for b in all_blades(sig)
                  if b & ~sig.degenerate_mask == 0]
    for x in deg_blades:
        for v in all_blades(sig):
            xv = blade_product(sig, x, v)
            vx = blade_product(sig, v, x)
            if xv.sign:
                assert blade_grade(xv.blade) == blade_grade(x) + blade_grade(v)
            if blade_grade(x) % 2 == 0 or blade_grade(v) % 2 == 0:
                assert xv == vx, (sig, x, v)
            else:
                assert vx.blade == xv.blade and \
                    vx.sign == hat_sign(x) * xv.sign, (sig, x, v)
            checked += 1
    return checked


def test_criterion_5_structural_law_suite():
    started = time.perf_counter()
    products = 0
    for sig in all_signatures(6):
        # Grade-0 conventions: everything commutes plainly with scalars;
        # the twisted condition cuts out exactly the even part.
        assert grade_centralizer(sig, 0, PLAIN) == full_algebra(sig)
        assert grade_centralizer(sig, 0, HAT) == parity_subspace(sig, 0)
        # Even parts of plain and twisted centralizers coincide.
        for m in range(sig.n + 1):
            assert parity_part(grade_centralizer(sig, m, PLAIN), 0) == \
                parity_part(grade_centralizer(sig, m, HAT), 0), (sig, m)
        _check_odd_part_inclusions(sig)
        _check_even_part_growth(sig)
        _check_filtration_inclusions(sig)
        products += _check_product_parity_table(sig)
        products += _check_degenerate_product_facts(sig)
    elapsed = time.perf_counter() - started
    assert products > 0
    print(f"\nPASS criterion 5: inclusion, stabilization, even-part and "
          f"product-parity laws hold exhaustively for n<=6 "
          f"({products} blade-product checks, {elapsed:.1f}s)")


# -- criterion 6: arithmetic core ------------------------------------------------

def _random_multivector(rng, sig, max_terms=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        blade = rng.randrange(1 << sig.n)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((blade, coeff))
    return Multivector.from_terms(sig, terms)


def test_criterion_6_arithmetic_laws_and_inverses():
    rng = random.Random(0x5EED)
    sigs = all_signatures(5)
    trials = 200

    for _ in range(trials):
        sig = rng.choice(sigs)
        u, v, w = (_random_multivector(rng, sig) for _ in range(3))
        assert (u * v) * w == u * (v * w)

    for _ in range(trials):
        sig = rng.choice(sigs)
        u, v = (_random_multivector(rng, sig) for _ in range(2))
        assert (u * v).grade_involute() == u.grade_involute() * v.grade_involute()
        assert (u * v).reverse() == v.reverse() * u.reverse()
        assert u.grade_involute().grade_involute() == u
        assert u.reverse().reverse() == u

    inverted = 0
    attempts = 0
    while inverted < 100:
        attempts += 1
        assert attempts < 10000
        sig = rng.choice(sigs)
        t = _random_multivector(rng, sig)
        if not is_invertible(t):
            continue
        t_inv = inverse_of(t)
        one = Multivector.scalar(sig, 1)
        assert t * t_inv == one
        assert t_inv * t == one
        inverted += 1

    print(f"\nPASS criterion 6: associativity and involution laws held for "
          f"{trials} random trials each on n<=5, and {inverted} random "
          f"invertible elements round-tripped through inverse_of exactly")


# -- criterion 7: adjoint kernels at the blade level ------------------------------

def _blade_inverse(sig, t):
    """Inverse of an invertible basis blade, verified by multiplication."""
    square = blade_product(sig, t, t)
    if square.sign == 0:
        return None
    inv = Multivector.from_terms(sig, [(t, square.sign)])
    assert Multivector.basis_blade(sig, t) * inv == Multivector.scalar(sig, 1)
    return inv


def test_criterion_7_adjoint_kernel_characterization():
    started = time.perf_counter()
    blades_checked = 0
    for sig in all_signatures(5):
        for t in all_blades(sig):
            inv = _blade_inverse(sig, t)
            commutes = all(
                commute_class(sig, t, b) in
                (CommuteClass.COMMUTE, CommuteClass.ANNIHILATE)
                for b in all_blades(sig))
            if inv is None:
                continue            # conjugation undefined; nothing to compare
            t_mv = Multivector.basis_blade(sig, t)
            fixes_basis = all(
                t_mv * Multivector.basis_blade(sig, b) * inv ==
                Multivector.basis_blade(sig, b)
                for b in all_blades(sig))
            assert fixes_basis == commutes, (sig, t)
            blades_checked += 1

    # Invertible even elements of the degenerate exterior algebra act
    # trivially under the involution-twisted conjugation.
    rng = random.Random(0xA11CE)
    samples = 0
    for sig in all_signatures(5):
        if sig.r == 0:
            continue
        deg_even = [b for b in all_blades(sig)
                    if b and b & ~sig.degenerate_mask == 0
                    and blade_grade(b) % 2 == 0]
        for _ in range(2):
            terms = [(0, Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))]
            terms += [(b, Fraction(rng.randint(-2, 2))) for b in deg_even]
            t = Multivector.from_terms(sig, terms)
            assert is_invertible(t)
            for b in all_blades(sig):
                basis = Multivector.basis_blade(sig, b)
                assert adjoint_hat(t, basis) == basis, (sig, t, b)
            samples += 1
    elapsed = time.perf_counter() - started
    assert samples >= 50
    print(f"\nPASS criterion 7: blade-level conjugation kernel matches the "
          f"commutation characterization ({blades_checked} invertible blades) "
          f"and {samples} sampled invertible even degenerate elements are "
          f"fixed points of twisted conjugation ({elapsed:.1f}s)")


# -- criterion 8: command-line contract -------------------------------------------

def test_criterion_8_cli_contract(capsys):
    assert main(["verify", "--max-dim", "5", "--targets", "all"]) == 0
    capsys.readouterr()

    table_sigs = ["3,0,0", "2,1,0", "0,3,0", "1,1,0",      # r = 0
                  "2,0,1", "1,1,1", "1,0,2", "0,2,2",      # 0 < r < n
                  "0,0,2", "0,0,4"]                        # r = n
    for text in table_sigs:
        assert main(["table1", "--signature", text]) == 0
        capsys.readouterr()

    # JSON round-trips: blades in the payloads rebuild the exact results.
    assert main(["centralizer", "--signature", "1,0,1", "--subspace",
                 "grade:2", "--kind", "plain", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    sig = make_signature(1, 0, 1)
    rebuilt = frozenset(blade_from_indices(ix) for ix in payload["blades"])
    want = brute_force_centralizer(
        sig, grade_subspace(sig, 2), PLAIN).blades
    assert rebuilt == want

    assert main(["verify", "--max-dim", "2", "--targets", "grades",
                 "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports and all(r["match"] for r in reports)
    for report in reports:
        rsig = make_signature(**report["signature"])
        rebuilt = frozenset(blade_from_indices(ix)
                            for ix in report["brute_blades"])
        kind = CentralizerKind(report["kind"])
        target = subspace_from_text(rsig, report["target"])
        assert rebuilt == brute_force_centralizer(rsig, target, kind).blades

    assert main(["table1", "--signature", "1,0,1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is True
    rows = table1_rows(make_signature(1, 0, 1))
    assert len(payload["rows"]) == len(rows) == 14
    for row_json, row in zip(payload["rows"], rows):
        rebuilt = frozenset(blade_from_indices(ix)
                            for ix in row_json["blades"])
        assert rebuilt == row.subspace.blades

    print("\nPASS criterion 8: verify sweep exits 0 for n<=5, the reduction "
          "table exits 0 on ten assorted signatures, and JSON payloads "
          "round-trip to the exact blade sets")
