"""The three routes stay independent: each reaches only its own functions
and the shared bit plumbing.

Every package cache is emptied before a route runs, so a cached function
that the route needs runs its body and is seen.  ``sys.setprofile`` then
records every package function the route calls on a fixed case set.  The
targets are built before recording starts, since all three routes read
the same target.
"""

import inspect
import os
import sys
import time
import types

import cliffcent
from cliffcent import _linalg, blades, centralizers, cli, multivector, subspaces
from cliffcent.blades import Signature
from cliffcent.centralizers import CentralizerKind
from cliffcent.subspaces import evaluate_spec, parse_subspace_spec

PACKAGE_DIR = os.path.dirname(cliffcent.__file__)

# Bit plumbing and the global blade order, which every route may read:
# none of it is a commutation rule.
SHARED = {
    "subspaces._pack", "subspaces._unpack", "subspaces._order_array",
    "subspaces._sorted_blades", "blades.blade_table",
    "blades.Signature.__post_init__", "blades.Signature.__hash__",
    "subspaces.Subspace.__post_init__", "centralizers._check_kind",
}

OWN = {
    "brute force": {
        "centralizers.brute_force_centralizer", "centralizers._brute_masks",
        "centralizers._parities", "centralizers._transform",
        "centralizers._chunk_kernel",
    },
    "oracle": {
        "centralizers.nullspace_centralizer_oracle", "centralizers._oracle_rows",
        "blades.blade_product", "multivector.Multivector.__init__",
        "multivector.Multivector.__mul__", "multivector.Multivector.terms",
        "multivector.Multivector._require_same_signature",
        "subspaces.Subspace.sorted_blades",
    },
    "closed forms": {
        "centralizers._closed_forms_for_target", "centralizers._intersect_all",
        "centralizers.closed_form_grade", "centralizers._closed_form_grade",
        "centralizers._general_form", "centralizers._assemble",
        "centralizers._untwisted", "centralizers.center_closed_form",
        "centralizers.closed_form_small_grade",
        "centralizers.closed_form_nondegenerate", "centralizers.closed_form_qt",
        "centralizers.closed_form_qt_pair", "centralizers._explicit_qt_pair",
        "centralizers._table_form", "centralizers._check_int",
        "subspaces._grade_mask", "subspaces._grades", "subspaces._parity_mask",
        "subspaces.direct_sum", "subspaces.intersect",
        "subspaces.full_algebra", "subspaces.grade_range",
        "subspaces.grade_subspace", "subspaces.parity_subspace",
        "subspaces.parity_part", "subspaces.lambda_even", "subspaces.lambda_full",
        "subspaces.lambda_range", "subspaces.lambda_subspace",
        "subspaces.nondeg_times_lambda",
    },
}

# What each route must reach, so that an empty record cannot pass.
CORE = {
    "brute force": {"centralizers._transform"},
    "oracle": {"centralizers._oracle_rows", "blades.blade_product"},
    "closed forms": {"centralizers._general_form",
                     "centralizers._explicit_qt_pair"},
}

ROUTES = {
    "brute force": lambda sig, spec, s, kind:
        centralizers.brute_force_centralizer(sig, s, kind),
    "oracle": lambda sig, spec, s, kind:
        centralizers.nullspace_centralizer_oracle(sig, s, kind),
    "closed forms": lambda sig, spec, s, kind:
        centralizers._closed_forms_for_target(sig, spec, kind),
}

SIGNATURES = [Signature(*pqr) for pqr in (
    (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (0, 0, 2), (3, 0, 0),
    (2, 0, 1), (1, 1, 1), (0, 0, 3), (2, 1, 1), (1, 0, 3))]
TARGETS = ("grade:0", "grade:1", "grade:2", "grade:1..2", "qt:0", "qt:3",
           "qt:13", "qt:02", "all", "lambda:1")


def clear_every_cache():
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cliffcent"):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def code_owners():
    """``module.qualname`` of every package function by its code object, on
    any Python 3 (``co_qualname`` is 3.11+).  The code of a nested function
    or a comprehension is charged to the function that holds it."""
    owners = {}

    def claim(code, name):
        owners[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                claim(const, name)

    for module in (_linalg, blades, centralizers, cli, multivector, subspaces):
        for value in vars(module).values():
            members = [value]
            if isinstance(value, type):
                members += vars(value).values()
            for member in members:
                member = getattr(member, "__func__", getattr(member, "fget", member))
                member = inspect.unwrap(member) if callable(member) else member
                code = getattr(member, "__code__", None)
                if code is not None and member.__module__.startswith("cliffcent."):
                    stem = member.__module__.rsplit(".", 1)[1]
                    claim(code, f"{stem}.{member.__qualname__}")
    return owners


OWNERS = code_owners()


def reached(route):
    """The package functions ``route`` calls on every case, as named by
    ``code_owners``; package code it does not know is named by its file."""
    clear_every_cache()
    cases = []
    for sig in SIGNATURES:
        for text in TARGETS:
            spec = parse_subspace_spec(text)
            s = evaluate_spec(sig, spec)
            cases += [(sig, spec, s, kind) for kind in CentralizerKind]
    clear_every_cache()
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE_DIR):
            seen.add(OWNERS.get(code) or f"{code.co_filename}:{code.co_name}")

    sys.setprofile(record)
    try:
        for case in cases:
            route(*case)
    finally:
        sys.setprofile(None)
    return seen


def test_allowlists_are_disjoint():
    names = list(OWN)
    for i, a in enumerate(names):
        assert not OWN[a] & SHARED, a
        for b in names[i + 1:]:
            assert not OWN[a] & OWN[b], (a, b)


def test_each_route_reaches_only_its_own_functions():
    started = time.perf_counter()
    everyone = SHARED.union(*OWN.values())
    for name, route in ROUTES.items():
        seen = reached(route)
        others = {fn for other, own in OWN.items() if other != name
                  for fn in own}
        assert sorted(seen & others) == [], f"{name} reaches another route"
        assert sorted(seen - everyone) == [], f"{name} reaches unlisted code"
        assert CORE[name] <= seen, (name, CORE[name] - seen)
    assert time.perf_counter() - started < 2.0
