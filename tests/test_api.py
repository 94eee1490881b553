"""The public surface of the package, pinned: adding or removing a name is a
deliberate edit of this list."""

import sdcodes

PUBLIC = [
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
    "apply_permutation",
    "are_neighbors",
    "are_permutation_equivalent",
    "double_pair_code",
    "extremal_bound",
    "fixture",
    "from_generator",
    "max_doubly_even_subcode",
    "neighbor_step",
    "neighborhood_containing",
    "neighborhood_of",
    "parse_matrix",
    "random_self_dual",
    "serialize_matrix",
    "verify_distance2_coincidence",
    "verify_no_better_type1",
    "walk_self_dual",
]


def test_all_is_the_pinned_surface_and_every_name_resolves():
    assert sorted(sdcodes.__all__) == PUBLIC
    assert all(hasattr(sdcodes, name) for name in PUBLIC)
