import random
from math import comb

import pytest

from sdcodes.code import (
    CodeType,
    EnumerationCapError,
    LinearCode,
    WeightEnumerator,
    extremal_bound,
    from_generator,
)
from sdcodes.gf2 import BitMatrix, BitVector
from sdcodes.neighborhood import double_pair_code

from oracles import (
    o_member,
    o_min_distance,
    o_orthogonal_all,
    o_rank,
    o_weight_counts,
    to_bits,
)

EXPECTED = {
    "G1": (8, CodeType.TYPE_II),
    "G2": (8, CodeType.TYPE_II),
    "G3": (2, CodeType.TYPE_I),
    "G4": (6, CodeType.TYPE_I),
    "G5": (4, CodeType.TYPE_II),
    "G6": (8, CodeType.TYPE_II),
}

GOLAY_WE = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def random_code(rng, max_n=18, max_rows=8):
    n = rng.randrange(2, max_n + 1)
    nrows = rng.randrange(1, min(n, max_rows) + 1)
    m = BitMatrix([BitVector(n, rng.getrandbits(n)) for _ in range(nrows)], ncols=n)
    return from_generator(m)


class TestCanonicalForm:
    def test_row_operations_do_not_change_the_code(self, fixture_codes):
        g1 = fixture_codes["G1"]
        rows = list(g1.generator)
        mixed = [rows[0] + rows[1], rows[1], rows[2] + rows[0]] + rows[3:]
        assert from_generator(BitMatrix(mixed, ncols=24)) == g1
        assert hash(from_generator(BitMatrix(mixed, ncols=24))) == hash(g1)

    def test_rank_deficient_input_drops_rows(self):
        m = BitMatrix.from_strings(["1100", "0110", "1010"])
        c = from_generator(m)
        assert c.k == 2

    def test_zero_code(self):
        c = from_generator(BitMatrix.from_strings(["0000"]))
        assert c.k == 0
        with pytest.raises(ValueError):
            c.minimum_distance()

    def test_int_rows_match_the_matrix_boundary(self, fixture_codes):
        g1 = fixture_codes["G1"]
        assert LinearCode(24, reversed(g1.rows)) == g1
        assert g1.generator.row_ints() == list(g1.rows)

    def test_rows_outside_the_length_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            LinearCode(4, [0b10000])
        with pytest.raises(ValueError, match="fit"):
            LinearCode(4, [-1])
        with pytest.raises(ValueError, match="length"):
            LinearCode(0, [])


class TestDual:
    def test_dual_is_orthogonal_complement(self):
        rng = random.Random(11)
        for _ in range(30):
            c = random_code(rng)
            d = c.dual()
            assert d.k == c.n - c.k
            original = [to_bits(r) for r in c.generator]
            for row in d.generator:
                assert o_orthogonal_all(original, to_bits(row))

    def test_dual_involution(self):
        rng = random.Random(12)
        for _ in range(30):
            c = random_code(rng)
            assert c.dual().dual() == c

    def test_fixtures_self_dual(self, fixture_codes):
        for c in fixture_codes.values():
            assert c.dual() == c
            assert c.is_self_dual() and c.is_self_orthogonal()


class TestMembership:
    def test_contains_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            c = random_code(rng, max_n=12)
            rows = [to_bits(r) for r in c.generator]
            for _ in range(20):
                v = BitVector(c.n, rng.getrandbits(c.n))
                assert c.contains(v) == o_member(rows, to_bits(v))

    def test_length_mismatch(self, fixture_codes):
        with pytest.raises(ValueError, match="length mismatch"):
            fixture_codes["G1"].contains(BitVector.zeros(23))


class TestIntersection:
    CROSS_DIMS = {
        ("G1", "G4"): 1, ("G1", "G5"): 1, ("G1", "G6"): 2,
        ("G2", "G4"): 2, ("G2", "G5"): 2, ("G2", "G6"): 3,
        ("G3", "G4"): 1, ("G3", "G5"): 1, ("G3", "G6"): 2,
    }

    def test_within_triples(self, fixture_codes):
        for a, b in (("G1", "G2"), ("G1", "G3"), ("G2", "G3"),
                     ("G4", "G5"), ("G4", "G6"), ("G5", "G6")):
            meet = fixture_codes[a].intersection(fixture_codes[b])
            assert meet.k == 11

    def test_across_triples(self, fixture_codes):
        for (a, b), dim in self.CROSS_DIMS.items():
            meet = fixture_codes[a].intersection(fixture_codes[b])
            assert meet.k == dim, (a, b)
            for row in meet.generator:
                assert fixture_codes[a].contains(row)
                assert fixture_codes[b].contains(row)


class TestEnumeration:
    def test_codewords_count_and_distinct(self):
        rng = random.Random(14)
        c = random_code(rng, max_n=14)
        words = c.codewords()
        assert len(words) == 1 << c.k
        assert len(set(words)) == len(words)
        assert words[0] == 0

    def test_gray_order_steps_by_one_generator_row(self, fixture_codes):
        c = fixture_codes["G5"]
        rows = set(c.generator.row_ints())
        words = c.codewords()
        assert all(words[i] ^ words[i + 1] in rows for i in range(len(words) - 1))

    def test_cap_enforced(self):
        c = from_generator(BitMatrix.identity(31))
        with pytest.raises(EnumerationCapError):
            c.codewords()
        small = from_generator(BitMatrix.identity(6))
        with pytest.raises(EnumerationCapError):
            small.minimum_distance(cap=5)
        assert small.minimum_distance(cap=6) == 1


class TestSweepPastOneBlock:
    """The sweep runs in blocks of 2^16 words; these codes need several."""

    def test_identity_17_enumerates_the_whole_space(self):
        c = from_generator(BitMatrix.identity(17))
        assert set(c.codewords()) == set(range(1 << 17))
        assert c.weight_enumerator() == {w: comb(17, w) for w in range(18)}
        assert c.minimum_distance() == 1

    def test_double_pair_36(self):
        c = double_pair_code(36)
        assert c.k == 18
        assert c.weight_enumerator() == {2 * j: comb(18, j) for j in range(19)}
        assert c.minimum_distance() == 2

    def test_gray_order_at_k18(self):
        rng = random.Random(18)
        while True:
            c = LinearCode(40, [rng.getrandbits(40) for _ in range(18)])
            if c.k == 18:
                break
        words = c.codewords()
        assert len(words) == 1 << 18 and words[0] == 0
        rows = set(c.rows)
        assert all(a ^ b in rows for a, b in zip(words, words[1:]))
        # word i is the sum of the rows picked by the Gray code i ^ (i >> 1)
        for i in (1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 << 16, (1 << 18) - 1):
            g = i ^ (i >> 1)
            expected = 0
            for b in range(18):
                if (g >> b) & 1:
                    expected ^= c.rows[b]
            assert words[i] == expected


class TestMinimumDistance:
    def test_fixture_distances(self, fixture_codes):
        for name, (d, _) in EXPECTED.items():
            assert fixture_codes[name].minimum_distance() == d

    def test_matches_oracle_on_random_codes(self):
        rng = random.Random(15)
        for _ in range(25):
            c = random_code(rng, max_n=14)
            if c.k == 0:
                continue
            expected = o_min_distance([to_bits(r) for r in c.generator])
            assert c.minimum_distance() == expected


class TestWeightEnumerator:
    def test_fixture_distribution_frozen(self, fixture_codes):
        assert fixture_codes["G1"].weight_enumerator().as_dict() == GOLAY_WE
        assert fixture_codes["G6"].weight_enumerator() == GOLAY_WE

    def test_matches_oracle_on_random_codes(self):
        rng = random.Random(16)
        for _ in range(15):
            c = random_code(rng, max_n=12)
            expected = o_weight_counts([to_bits(r) for r in c.generator])
            assert c.weight_enumerator().as_dict() == expected

    def test_total_is_code_size(self, fixture_codes):
        we = fixture_codes["G3"].weight_enumerator()
        assert we.total() == 1 << 12
        assert we.min_positive_weight() == 2

    def test_symmetry_for_fixtures(self, fixture_codes):
        # the all-ones word flips each codeword, pairing weights w and n-w
        for c in fixture_codes.values():
            we = c.weight_enumerator().as_dict()
            assert all(we[w] == we[24 - w] for w in we)

    def test_mapping_interface(self):
        we = WeightEnumerator({0: 1, 4: 3})
        assert we[4] == 3 and we[2] == 0
        assert we == {0: 1, 4: 3}
        assert we != {0: 1}


class TestClassification:
    def test_fixture_types(self, fixture_codes):
        for name, (_, t) in EXPECTED.items():
            assert fixture_codes[name].classify() is t

    def test_not_self_orthogonal(self):
        c = from_generator(BitMatrix.from_strings(["100", "010"]))
        assert c.classify() is CodeType.NOT_SELF_ORTHOGONAL
        assert not c.is_self_dual()

    def test_self_orthogonal_only(self):
        c = from_generator(BitMatrix.from_strings(["11110000"]))
        assert c.classify() is CodeType.SELF_ORTHOGONAL_ONLY

    def test_type_strings(self):
        assert str(CodeType.TYPE_I) == "TypeI"
        assert str(CodeType.TYPE_II) == "TypeII"


class TestExtremalBound:
    def test_frozen_values(self):
        assert extremal_bound(24, CodeType.TYPE_I) == 8
        assert extremal_bound(24, CodeType.TYPE_II) == 8
        assert extremal_bound(8, CodeType.TYPE_II) == 4
        assert extremal_bound(16, CodeType.TYPE_I) == 6
        assert extremal_bound(72, CodeType.TYPE_II) == 16
        assert extremal_bound(72, CodeType.TYPE_I) == 20

    def test_type2_needs_multiple_of_8(self):
        with pytest.raises(ValueError):
            extremal_bound(12, CodeType.TYPE_II)

    def test_only_self_dual_types(self):
        with pytest.raises(ValueError):
            extremal_bound(8, CodeType.NOT_SELF_ORTHOGONAL)
