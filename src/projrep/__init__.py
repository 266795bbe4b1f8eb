"""Exact-arithmetic construction and irreducibility analysis of
polynomial-twisted sl(n+1) representations built from gl(n)-modules."""

from .errors import (
    ConsistencyViolationError,
    DimensionCapError,
    MultiplicityAnomalyError,
    UnsupportedOperatorError,
)
from .linalg import (
    DegenerateSpectrumError,
    EchelonSpan,
    Matrix,
    eval_operator_polynomial,
    idempotent_from_spectrum,
    kernel_basis,
    rank,
)
from .glmodules import (
    DominantLabels,
    GlModule,
    build_irreducible,
    pieri_index_set,
    weight_from_labels,
    weyl_dimension,
)
from .action import (
    ChevalleySet,
    GradedElement,
    WittElement,
    act,
    chevalley_generators,
    graded_basis,
    operator_matrix,
    triangle_delta,
    verify_bracket_consistency,
)
from .charident import (
    SpectrumReport,
    adjoint_matrices,
    brute_force_spectrum,
    check_characteristic_identity,
    predicted_adjoint_roots,
    predicted_sigma2_roots,
    sigma2_tilde,
    tensor_projector,
)
from .irreducibility import (
    CriterionWitness,
    JordanHolderReport,
    criterion,
    criterion_equivalence_check,
    jordan_holder,
    q_coefficient,
    q_coefficient_bruteforce,
    residual_summands,
    up_submodule_rank,
)

__version__ = "0.1.0"
