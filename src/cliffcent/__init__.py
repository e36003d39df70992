"""Exact centralizer computations in Clifford algebras with degenerate metrics.

The package computes centralizers, grade-twisted centralizers, and
mix-twisted centralizers of blade-spanned subspaces of Cl(p,q,r) three
independent ways (blade-level brute force, an exact rational nullspace
solver, and closed-form descriptions) and cross-checks them against each
other over whole families of signatures.
"""

from .blades import (
    Blade,
    CommuteClass,
    ScaledBlade,
    Signature,
    all_blades,
    blade_from_indices,
    blade_grade,
    blade_indices,
    blade_product,
    blade_sort_key,
    commute_class,
    format_blade,
    hat_sign,
    make_signature,
    parse_blade,
    tilde_sign,
)
from .multivector import (
    Multivector,
    adjoint,
    adjoint_hat,
    adjoint_tilde,
    commutator,
    geometric_product,
    grade_involute,
    grade_project,
    inverse_of,
    is_invertible,
    left_regular_matrix,
    mv_add,
    mv_from_terms,
    mv_scale,
    parity_project,
    reverse,
)
from .subspaces import (
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
    parity_part,
    parity_subspace,
    parse_subspace_spec,
    quaternion_type_subspace,
    subspace_contains,
    subspace_equals,
    subspace_from_text,
    zero_subspace,
)
from .centralizers import (
    CentralizerKind,
    VerifyReport,
    all_signatures,
    brute_force_centralizer,
    center_closed_form,
    closed_form_grade,
    closed_form_nondegenerate,
    closed_form_qt,
    closed_form_qt_pair,
    closed_form_small_grade,
    nullspace_centralizer_oracle,
    summarize,
    sweep_verify,
    verify_case,
)

__version__ = "0.1.0"
