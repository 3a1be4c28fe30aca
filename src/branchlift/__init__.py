"""Exact toolkit for abelian prime-power branched covers of the sphere.

The package decides when such a cover admits a lift of every homeomorphism
of the sphere preserving the branching set, classifies covers up to
equivalence for small parameters by exhaustive search, and checks the
census against a closed-form prediction.
"""

from .modular import (
    MAX_MODULUS,
    MAX_RANK,
    Matrix,
    ModulusContext,
    Perm,
    Vector,
    matmul,
)
from .subgroups import (
    CanonicalForm,
    Subgroup,
    canonical_form,
    contains,
    elements,
    equal,
    howell_reduce,
    order,
    quotient_invariants,
    rebuild,
    span,
    subgroup_from_json,
    subgroup_to_json,
)
from .action import (
    LiftVerdict,
    OmegaNotIdentityError,
    act,
    action_matrix,
    divisibility_criterion,
    fully_liftable,
    generators,
    invariant_under,
    omega_normalize,
    swap_with_last,
)
from .covers import (
    CoverSpec,
    CoverValidationError,
    GeneralCoverSpec,
    apply_cover_map,
    cover_from_form,
    cover_from_json,
    cover_to_json,
    deck_group_name,
    deck_group_order,
    equivalent,
    induced_deck_automorphism,
    kernel,
    primary_parts,
    require_valid,
    validate,
    validate_general,
)
from .census import (
    AuditReport,
    BoundExceededError,
    CensusReport,
    CoverClass,
    DEFAULT_BOUND,
    Predicted,
    TwoPointReport,
    classify,
    classify_two_points,
    enumerate_subgroups,
    predict_liftable,
    report_to_json,
    structural_audit,
    structure_violations,
    verify_classification,
    write_atlas,
)

__version__ = "0.1.0"
