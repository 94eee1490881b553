import gc
import random
from collections import Counter

import pytest

from sdcodes import code, equivalence, gf2
from sdcodes.code import EnumerationCapError, InternalConsistencyError, from_generator
from sdcodes.equivalence import (
    CoordinatePermutation,
    apply_permutation,
    are_permutation_equivalent,
)
from sdcodes.gf2 import BitMatrix, BitVector
from sdcodes.neighborhood import double_pair_code, neighborhood_of

from oracles import o_codewords, o_weight, to_bits


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


def o_column_coverage(c, top):
    """Per column, how many codewords of each nonzero weight up to top cover
    it, counted word by word."""
    words = o_codewords([to_bits(r) for r in c.generator])
    weights = sorted({o_weight(w) for w in words if 0 < o_weight(w) <= top})
    profiles = [Counter() for _ in range(c.n)]
    for w in words:
        for i, bit in enumerate(w):
            if bit:
                profiles[i][o_weight(w)] += 1
    return Counter(tuple(p[w] for w in weights) for p in profiles)


def assert_profiles_match_oracle(c):
    groups = equivalence._weight_groups(c.codewords()[1:])
    weights = list(groups)
    # every weight, and the weights up to the middle one
    for top in (weights[-1], weights[(len(weights) - 1) // 2]):
        assert equivalence._column_profiles(c.n, groups, top) == o_column_coverage(c, top)


class TestColumnCoverage:
    def test_matches_per_word_count_on_random_codes(self):
        rng = random.Random(31)
        zero_columns = partial = 0
        for _ in range(40):
            n = rng.randrange(2, 15)
            # a random mask zeroes some columns of every row
            mask = rng.getrandbits(n) | rng.getrandbits(n)
            nrows = rng.randrange(1, min(n, 8) + 1)
            rows = [BitVector(n, rng.getrandbits(n) & mask) for _ in range(nrows)]
            c = from_generator(BitMatrix(rows, ncols=n))
            if c.k == 0:
                continue
            zero_columns += n - bin(mask).count("1")
            # two nonzero weights or more: the middle limit leaves some out
            partial += len(c.weight_enumerator().counts) > 2
            assert_profiles_match_oracle(c)
        assert zero_columns > 0 and partial > 0

    def test_fixtures(self, fixture_codes):
        for name in ("G3", "G4"):
            assert_profiles_match_oracle(fixture_codes[name])


class TestOneSweepPerCode:
    def test_one_codeword_list_per_code(self, monkeypatch, fixture_codes, e8e8, d16):
        # no weight enumerator and no shortened code: the weight distribution
        # and the profiles come from the one sweep that lists the codewords
        sweeps = []
        blocks = code._gray_blocks

        def counted(rows):
            sweeps.append(len(rows))
            return blocks(rows)

        def boom(*args):
            raise AssertionError("called")

        monkeypatch.setattr(code, "_gray_blocks", counted)
        monkeypatch.setattr(code.LinearCode, "weight_enumerator", boom)
        monkeypatch.setattr(gf2, "_kernel_rows", boom)
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"]) is not None
        assert sweeps == [12, 12]
        sweeps.clear()
        assert are_permutation_equivalent(e8e8, d16) is None
        assert sweeps == [8, 8]

    def test_weight_distribution_rejects_before_any_value_sort(self, monkeypatch, fixture_codes):
        # grouping by weight sorts by key; c1's groups are sorted by value
        # only once their sizes match those of c2
        value_sorts = []

        def tracked(words, **kw):
            if "key" not in kw:
                value_sorts.append(len(words))
            return sorted(words, **kw)

        monkeypatch.setattr(equivalence, "sorted", tracked, raising=False)
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G3"]) is None
        assert value_sorts == []
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"]) is not None
        # the Golay code: its groups of weight 8, 12, 16 and 24, one sort each
        assert value_sorts[:4] == [759, 2576, 759, 1]


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
