"""Binary self-dual codes, their neighborhoods, and permutation equivalence."""

from .code import (
    DEFAULT_ENUMERATION_CAP,
    CodeType,
    EnumerationCapError,
    InternalConsistencyError,
    LinearCode,
    WeightEnumerator,
    extremal_bound,
    from_generator,
)
from .equivalence import (
    CoordinatePermutation,
    apply_permutation,
    are_permutation_equivalent,
)
from .fixtures_io import (
    FIXTURE_NAMES,
    MatrixFormatError,
    fixture,
    parse_matrix,
    serialize_matrix,
)
from .gf2 import BitMatrix, BitVector, dot, kernel_basis, mu, rank, rref, weight
from .neighborhood import (
    Neighborhood,
    Verdict,
    are_neighbors,
    double_pair_code,
    max_doubly_even_subcode,
    neighbor_step,
    neighborhood_containing,
    neighborhood_of,
    random_self_dual,
    verify_distance2_coincidence,
    verify_no_better_type1,
    verify_singly_even_range,
    walk_self_dual,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVector",
    "CodeType",
    "CoordinatePermutation",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "FIXTURE_NAMES",
    "InternalConsistencyError",
    "LinearCode",
    "MatrixFormatError",
    "Neighborhood",
    "Verdict",
    "WeightEnumerator",
    "apply_permutation",
    "are_neighbors",
    "are_permutation_equivalent",
    "dot",
    "double_pair_code",
    "extremal_bound",
    "fixture",
    "from_generator",
    "kernel_basis",
    "max_doubly_even_subcode",
    "mu",
    "neighbor_step",
    "neighborhood_containing",
    "neighborhood_of",
    "parse_matrix",
    "random_self_dual",
    "rank",
    "rref",
    "serialize_matrix",
    "verify_distance2_coincidence",
    "verify_no_better_type1",
    "verify_singly_even_range",
    "walk_self_dual",
    "weight",
]
