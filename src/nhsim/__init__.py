"""Similarity-class analysis of non-Hermitian matrices.

The package classifies finite non-Hermitian Hamiltonians into three
generalized similarity classes (pseudo-Hermitian, chiral, self-skew-similar),
constructs the Hermitian witness transforms explicitly, decides unitary
similarity through word traces, and locates/certifies exceptional points in
parameterized families using class-reduced real constraint systems.
"""

__version__ = "0.1.0"

from .classes import (
    ClassificationResult,
    SimilarityClass,
    SimilarityWitness,
    classify,
    construct_witness,
    detect_special_cases,
    factor,
    generate_random,
    witness_residual,
)
from .epfinder import (
    ConstraintSystem,
    EPCandidate,
    OrderCertificate,
    ScanConfig,
    certify_order,
    class_identity_check,
    reduced_constraints,
    scan,
    splitting_exponent,
)
from .errors import (
    ClassMismatchError,
    EigensolverError,
    FamilyFormatError,
    FamilyNotInClassError,
    NhsimError,
    NonFiniteMatrixError,
    UnsupportedDimensionError,
)
from .families import MatrixFamily, constraint_jacobians, parse_family
from .matrices import matrix_to_json, parse_matrix
from .specht import (
    CounterexampleEvidence,
    Word,
    check_similarity_implies_symmetry_2x2,
    n3_counterexample,
    trace_profile,
    unitary_similarity_test,
    word_list,
    word_trace,
)
from .spectral import (
    JordanBlock,
    Spectrum,
    ToleranceConfig,
    eigenvalues,
    is_normal,
    multiset_symmetry_match,
    power_traces,
)

__all__ = [
    "__version__",
    # classes
    "SimilarityClass", "SimilarityWitness", "ClassificationResult",
    "classify", "construct_witness", "witness_residual",
    "factor", "generate_random", "detect_special_cases",
    # spectral
    "ToleranceConfig", "Spectrum", "JordanBlock", "eigenvalues",
    "power_traces", "multiset_symmetry_match", "is_normal",
    # specht
    "Word", "word_trace", "word_list", "trace_profile",
    "unitary_similarity_test", "check_similarity_implies_symmetry_2x2",
    "CounterexampleEvidence", "n3_counterexample",
    # families
    "MatrixFamily", "parse_family", "constraint_jacobians",
    # ep-finder
    "ConstraintSystem", "class_identity_check", "reduced_constraints",
    "ScanConfig", "EPCandidate", "scan", "OrderCertificate", "certify_order",
    "splitting_exponent",
    # io
    "parse_matrix", "matrix_to_json",
    # errors
    "NhsimError", "NonFiniteMatrixError", "EigensolverError",
    "ClassMismatchError", "UnsupportedDimensionError",
    "FamilyFormatError", "FamilyNotInClassError",
]
