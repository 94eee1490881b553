import gc
import random

import pytest

from sdcodes import equivalence
from sdcodes.code import EnumerationCapError, InternalConsistencyError, from_generator
from sdcodes.equivalence import (
    CoordinatePermutation,
    apply_permutation,
    are_permutation_equivalent,
)
from sdcodes.gf2 import BitMatrix, BitVector
from sdcodes.neighborhood import double_pair_code, neighborhood_of


@pytest.fixture(scope="module")
def e8():
    return neighborhood_of(double_pair_code(8)).type2()[0]


@pytest.fixture(scope="module")
def e8e8(e8):
    rows = [BitVector(16, r.bits) for r in e8.generator] + [
        BitVector(16, r.bits << 8) for r in e8.generator
    ]
    return from_generator(BitMatrix(rows, ncols=16))


@pytest.fixture(scope="module")
def d16(e8e8):
    stair = [BitVector(16, 0b1111 << (2 * i)) for i in range(7)]
    glue = BitVector.from_string("1010101010101010")
    code = from_generator(BitMatrix(stair + [glue], ncols=16))
    assert code.is_self_dual()
    assert code.weight_enumerator() == e8e8.weight_enumerator()
    return code


class TestCoordinatePermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            CoordinatePermutation((0, 0, 1))

    def test_identity_and_inverse(self):
        p = CoordinatePermutation((2, 0, 1, 3))
        assert p.then(p.inverse()) == CoordinatePermutation.identity(4)
        assert p.inverse().then(p) == CoordinatePermutation.identity(4)

    def test_apply_moves_coordinates(self):
        p = CoordinatePermutation((2, 0, 1))
        v = BitVector.from_string("100")
        assert p.apply(v).to01() == "001"
        assert p.apply(BitVector.from_string("010")).to01() == "100"

    def test_apply_length_checked(self):
        with pytest.raises(ValueError, match="length mismatch"):
            CoordinatePermutation.identity(3).apply(BitVector.zeros(4))

    def test_random_inverse_round_trip(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randrange(1, 30)
            images = list(range(n))
            rng.shuffle(images)
            p = CoordinatePermutation(tuple(images))
            v = BitVector(n, rng.getrandbits(n))
            assert p.inverse().apply(p.apply(v)) == v


class TestApplyPermutation:
    def test_preserves_weight_distribution(self, fixture_codes):
        rng = random.Random(3)
        images = list(range(24))
        rng.shuffle(images)
        p = CoordinatePermutation(tuple(images))
        moved = apply_permutation(fixture_codes["G5"], p)
        assert moved.weight_enumerator() == fixture_codes["G5"].weight_enumerator()
        assert moved.is_self_dual()

    def test_length_checked(self, fixture_codes):
        with pytest.raises(ValueError, match="length mismatch"):
            apply_permutation(fixture_codes["G1"], CoordinatePermutation.identity(8))


class TestDecision:
    def test_scrambled_copy_found(self, fixture_codes):
        p = CoordinatePermutation(tuple(reversed(range(24))))
        moved = apply_permutation(fixture_codes["G1"], p)
        w = are_permutation_equivalent(fixture_codes["G1"], moved)
        assert w is not None
        assert apply_permutation(fixture_codes["G1"], w) == moved

    def test_golay_members_equivalent(self, fixture_codes):
        w = are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"])
        assert w is not None
        assert apply_permutation(fixture_codes["G1"], w) == fixture_codes["G2"]
        w = are_permutation_equivalent(fixture_codes["G2"], fixture_codes["G6"])
        assert w is not None
        assert apply_permutation(fixture_codes["G2"], w) == fixture_codes["G6"]

    def test_weight_distribution_rejection(self, fixture_codes):
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G3"]) is None
        assert are_permutation_equivalent(fixture_codes["G3"], fixture_codes["G4"]) is None

    def test_symmetry(self, fixture_codes):
        forward = are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"])
        backward = are_permutation_equivalent(fixture_codes["G2"], fixture_codes["G1"])
        assert forward is not None and backward is not None

    def test_equal_codes_identity(self, fixture_codes):
        w = are_permutation_equivalent(fixture_codes["G4"], fixture_codes["G4"])
        assert w == CoordinatePermutation.identity(24)

    def test_same_distribution_inequivalent_pair(self, e8e8, d16):
        # equal weight distributions, so only exhaustion can separate them
        assert e8e8 != d16
        assert are_permutation_equivalent(e8e8, d16) is None
        assert are_permutation_equivalent(d16, e8e8) is None

    def test_scrambled_inequivalent_pair_stays_inequivalent(self, e8e8, d16):
        rng = random.Random(4)
        images = list(range(16))
        rng.shuffle(images)
        moved = apply_permutation(d16, CoordinatePermutation(tuple(images)))
        assert are_permutation_equivalent(e8e8, moved) is None
        w = are_permutation_equivalent(d16, moved)
        assert w is not None
        assert apply_permutation(d16, w) == moved

    def test_dimension_mismatch_is_inequivalent(self, e8):
        half = from_generator(BitMatrix(list(e8.generator)[:3], ncols=8))
        assert are_permutation_equivalent(e8, half) is None

    def test_length_mismatch_is_an_error(self, e8, d16):
        with pytest.raises(ValueError, match="length mismatch"):
            are_permutation_equivalent(e8, d16)

    def test_caps(self):
        long_code = from_generator(
            BitMatrix([BitVector(40, 0b11 << (2 * i)) for i in range(4)], ncols=40)
        )
        with pytest.raises(EnumerationCapError, match="length"):
            are_permutation_equivalent(long_code, long_code)
        wide_code = from_generator(BitMatrix.identity(20))
        with pytest.raises(EnumerationCapError, match="dimension"):
            are_permutation_equivalent(wide_code, wide_code)

    def test_zero_dimensional_codes(self):
        z = from_generator(BitMatrix.from_strings(["0000"]))
        assert are_permutation_equivalent(z, z) == CoordinatePermutation.identity(4)


class TestWitnessCheck:
    def test_wrong_witness_raises(self, monkeypatch, fixture_codes):
        # a raised error, not an assert, so python -O keeps the check
        monkeypatch.setattr(equivalence, "apply_permutation", lambda c, p: fixture_codes["G3"])
        with pytest.raises(InternalConsistencyError, match="witness"):
            are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"])

    def test_search_leaves_no_reference_cycles(self, fixture_codes):
        gc.collect()
        gc.disable()
        try:
            are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"])
            are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G3"])
            assert gc.collect() == 0
        finally:
            gc.enable()
