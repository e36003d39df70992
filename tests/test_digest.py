"""Every route's masks over one fixed case set, hashed route by route.

A refactor that must leave every output as it is keeps every hash below.
A change that moves an output on purpose moves only the hashes of the
routes it touches, and regenerates them with

    PYTHONPATH=src python tests/test_digest.py

whose output replaces ``EXPECTED``.

The case set is every sweep target plus seven extras, the three kinds,
and every signature with n <= 8; the oracle runs on those with n <= 6.
Brute force and each closed-form leg hash their masks.  The oracle hashes
the union of its basis supports and whether its dimension is that
union's blade count, the two facts ``verify_case`` compares.
"""

import hashlib

from cliffcent.centralizers import (
    CentralizerKind,
    _closed_forms_for_target,
    _oracle_span,
    all_signatures,
    brute_force_centralizer,
    nullspace_centralizer_oracle,
    sweep_targets,
)
from cliffcent.subspaces import evaluate_spec, parse_subspace_spec
from test_centralizers import clear_every_cache

MAX_N = 8
ORACLE_MAX_N = 6
EXTRA_TARGETS = ("all", "even", "odd", "lambda:1", "grade:1..3", "grade:0..2",
                 "qt:01+qt:23")
ROUTES = ("brute", "closed_form", "small_grade", "nondegenerate", "qt_pair",
          "oracle")

EXPECTED = {
    "brute": "edb982a24c6e5552",
    "closed_form": "9d1d8deab5e4ef2b",
    "small_grade": "be3e453681b17475",
    "nondegenerate": "1597ea0d60e72371",
    "qt_pair": "23b8209e29d86864",
    "oracle": "61d8fb200c31adc3",
}


def route_digests():
    """One 16-hex-digit BLAKE2b hash per route of ``ROUTES``: each case
    that the route covers adds one line of signature, target, kind and
    hex mask, in case order.  Every cache is emptied first, so that each
    mask is computed here and not read from an earlier caller."""
    clear_every_cache()
    hashes = {route: hashlib.blake2b(digest_size=8) for route in ROUTES}

    def add(route, case, text):
        hashes[route].update(f"{case} {text}\n".encode())

    for sig in all_signatures(MAX_N):
        for target in sweep_targets(sig, ("grades", "qtypes", "pairs")) + list(EXTRA_TARGETS):
            spec = parse_subspace_spec(target)
            s = evaluate_spec(sig, spec)
            for kind in CentralizerKind:
                case = f"{sig} {target} {kind.value}"
                add("brute", case, f"{brute_force_centralizer(sig, s, kind).mask:x}")
                for name, form in _closed_forms_for_target(sig, spec, kind).items():
                    add(name, case, f"{form.mask:x}")
                if sig.n <= ORACLE_MAX_N:
                    support, consistent = _oracle_span(
                        *nullspace_centralizer_oracle(sig, s, kind))
                    add("oracle", case, f"{support:x} {consistent}")
    return {route: h.hexdigest() for route, h in hashes.items()}


def test_every_route_keeps_its_digest():
    assert route_digests() == EXPECTED


if __name__ == "__main__":
    print("EXPECTED = {")
    for route, digest in route_digests().items():
        print(f'    "{route}": "{digest}",')
    print("}")
