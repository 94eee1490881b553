import gc
import random
from collections import Counter

import pytest

from sdcodes import code, equivalence, gf2
from sdcodes.code import EnumerationCapError, InternalConsistencyError, LinearCode, from_generator
from sdcodes.equivalence import (
    CoordinatePermutation,
    apply_permutation,
    are_permutation_equivalent,
)
from sdcodes.gf2 import BitMatrix, BitVector
from sdcodes.neighborhood import double_pair_code, neighborhood_of, random_self_dual

from oracles import o_codewords, o_equivalent, o_weight, to_bits


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
    return [tuple(p[w] for w in weights) for p in profiles]


def assert_profiles_match_oracle(c):
    words = c.codewords()[1:]
    weights = sorted({x.bit_count() for x in words})
    # every weight, and the weights up to the middle one
    for top in (weights[-1], weights[(len(weights) - 1) // 2]):
        groups = [[x for x in words if x.bit_count() == w] for w in weights if w <= top]
        assert equivalence._column_profiles(c.n, groups) == o_column_coverage(c, top)


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
        # and the profiles come from the one sweep of each code
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
        # c1's words are value-sorted one weight at a time, only once the
        # weight distributions match and only as far as the basis reads
        value_sorts = []

        def tracked(words, **kw):
            value_sorts.append(len(words))
            return sorted(words, **kw)

        def boom(*args):
            raise AssertionError("called")

        profiles = equivalence._column_profiles
        monkeypatch.setattr(equivalence, "sorted", tracked, raising=False)
        monkeypatch.setattr(equivalence, "_column_profiles", boom)
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G3"]) is None
        assert value_sorts == []
        monkeypatch.setattr(equivalence, "_column_profiles", profiles)
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"]) is not None
        # the Golay code's 759 words of weight 8 span it, so its groups of
        # weight 12, 16 and 24 stay unsorted; then the witness's own check
        assert value_sorts == [759, 24]


def permuted(c, rng):
    """c under a coordinate permutation drawn from rng."""
    images = list(range(c.n))
    rng.shuffle(images)
    return apply_permutation(c, CoordinatePermutation(tuple(images)))


def map_basis_calls(monkeypatch, c1, c2):
    """The classes of each _map_basis call while deciding c1 against c2."""
    calls, search = [], equivalence._map_basis

    def spy(depth, classes, *rest):
        calls.append(classes)
        return search(depth, classes, *rest)

    with monkeypatch.context() as mp:
        mp.setattr(equivalence, "_map_basis", spy)
        are_permutation_equivalent(c1, c2)
    return calls


class TestProfilePartition:
    """The basis search starts from one class of columns per coverage
    profile.  No answer depends on it, so these tests count the search."""

    def test_fewer_searches_than_from_one_class(self, monkeypatch):
        # the walk32perm golden's pair: 82 calls when every column shares
        # one profile, 37 from the profile classes (1007 and 418 without
        # the light-word cut)
        a = random_self_dual(32, 12, 19)
        b = permuted(a, random.Random(32))
        partitioned = len(map_basis_calls(monkeypatch, a, b))
        monkeypatch.setattr(equivalence, "_column_profiles", lambda n, groups: [()] * n)
        flat = len(map_basis_calls(monkeypatch, a, b))
        assert partitioned <= 418
        assert partitioned < flat

    def test_start_classes_are_the_oracle_profile_classes(self, monkeypatch):
        split = 0
        for seed in range(6):
            a = random_self_dual(16, 4 + seed, seed)
            b = permuted(a, random.Random(seed))
            if a == b:
                continue
            calls = map_basis_calls(monkeypatch, a, b)
            # the least weight whose words and the lighter ones span a: the
            # heaviest weight of a basis read lightest first
            words = a.codewords()[1:]
            top = min(
                w for w in range(17) if LinearCode(16, [x for x in words if x.bit_count() <= w]) == a
            )
            columns = {}
            for i, p in enumerate(o_column_coverage(b, top)):
                columns.setdefault(p, set()).add(i)
            starts = [{i for i in range(16) if (m >> i) & 1} for _, m in calls[0]]
            assert sorted(map(sorted, starts)) == sorted(map(sorted, columns.values()))
            split += len(starts) > 1
        assert split > 0


class TestLightWordCut:
    """The search cuts a node whose classes meet c2's light words otherwise
    than c1's classes meet c1's.  Only dead branches go, so the witness is
    the one the uncut search finds; these tests count what is cut."""

    @pytest.mark.parametrize(
        "walk, perm, cut_at_most, uncut",
        [((12, 19), 32, 37, 418), ((12, 1015), 0, 78, 1330), ((24, 1021), 0, 24, 810)],
    )
    def test_same_witness_from_far_fewer_searches(self, monkeypatch, walk, perm, cut_at_most, uncut):
        a = random_self_dual(32, *walk)
        b = permuted(a, random.Random(perm))
        cut_calls = len(map_basis_calls(monkeypatch, a, b))
        witness = are_permutation_equivalent(a, b)
        # every node's meets equal: nothing is cut
        monkeypatch.setattr(equivalence, "_meets", lambda masks, words: None)
        assert len(map_basis_calls(monkeypatch, a, b)) == uncut
        uncut_witness = are_permutation_equivalent(a, b)
        assert witness is not None and uncut_witness == witness
        assert cut_calls <= cut_at_most < uncut // 10

    def test_meets_count_columns_of_each_mask(self):
        words = [0b0111, 0b1100, 0b1010, 0b0111]
        assert equivalence._meets([0b0011, 0b1100], words) == Counter(
            {(2, 1): 2, (0, 2): 1, (1, 1): 1}
        )


# inequivalent pairs with equal weight distributions: the only one among
# all [6, 3] codes, and the one among all [7, 3] codes that is not it with
# a zero column added
SAME_DISTRIBUTION = [
    (["100111", "010100", "001100"], ["101000", "010010", "000101"]),
    (["1001100", "0101111", "0010100"], ["1011000", "0110010", "0000101"]),
]


def code_of(rows):
    return from_generator(BitMatrix.from_strings(rows))


def assert_agrees_with_brute_force(c1, c2):
    """The search's answer against all n! permutations; returns the answer."""
    rows1, rows2 = ([to_bits(r) for r in c.generator] for c in (c1, c2))
    expected = o_equivalent(rows1, rows2, c1.n)
    witness = are_permutation_equivalent(c1, c2)
    assert (witness is not None) == expected
    return expected


class TestBruteForceOracle:
    """Equivalence or not, against an oracle that tries every permutation
    with tuple arithmetic, at lengths up to 8."""

    def test_random_linear_codes(self):
        rng = random.Random(13)
        answers = Counter()
        for _ in range(60):
            n = rng.randrange(2, 9)
            k = rng.randrange(1, n + 1)
            c1 = LinearCode(n, [rng.getrandbits(n) for _ in range(k)])
            # half the time another random code, half a permuted copy
            if rng.random() < 0.5:
                c2 = LinearCode(n, [rng.getrandbits(n) for _ in range(k)])
            else:
                c2 = permuted(c1, rng)
            answers[assert_agrees_with_brute_force(c1, c2)] += 1
        assert answers[True] > 0 and answers[False] > 0

    def test_self_dual_codes(self, e8):
        # these walk codes are permuted copies of i2^(n/2); at n = 8 also e8
        rng = random.Random(14)
        answers = Counter()
        for n in (4, 6, 8):
            codes = [random_self_dual(n, steps, seed) for seed in range(4) for steps in (1, 3)]
            codes += [permuted(e8, rng) for _ in range(3)] if n == 8 else []
            for c1 in codes:
                c2 = rng.choice(codes)
                same = assert_agrees_with_brute_force(c1, c2)
                assert assert_agrees_with_brute_force(c1, permuted(c2, rng)) == same
                answers[same] += 1
        assert answers[True] > 0 and answers[False] > 0

    def test_equal_weight_distributions(self):
        rng = random.Random(15)
        for rows1, rows2 in SAME_DISTRIBUTION:
            # zero columns added to both up to length 8 keep them apart
            for pad in range(9 - len(rows1[0])):
                c1 = code_of([r + "0" * pad for r in rows1])
                c2 = code_of([r + "0" * pad for r in rows2])
                assert c1.weight_enumerator() == c2.weight_enumerator()
                assert not assert_agrees_with_brute_force(c1, permuted(c2, rng))
                assert not assert_agrees_with_brute_force(c2, permuted(c1, rng))
                assert assert_agrees_with_brute_force(c1, permuted(c1, rng))


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
