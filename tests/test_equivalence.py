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


def drawn_weights(monkeypatch):
    """Per code that the search streams, the weights it reads from _words_by_weight."""
    drawn, stream = [], equivalence._words_by_weight

    def spy(c):
        weights = []
        drawn.append(weights)
        for w, words in stream(c):
            weights.append(w)
            yield w, words

    monkeypatch.setattr(equivalence, "_words_by_weight", spy)
    return drawn


class TestLightWordsFromRounds:
    def test_no_gray_sweep(self, monkeypatch, fixture_codes, e8e8, d16):
        # no sweep, no weight enumerator and no shortened code: each code's
        # groups come from its Brouwer-Zimmermann rounds, up to the heaviest
        # basis weight of c1
        def boom(*args):
            raise AssertionError("called")

        monkeypatch.setattr(code, "_gray_blocks", boom)
        monkeypatch.setattr(code.LinearCode, "weight_enumerator", boom)
        monkeypatch.setattr(gf2, "_kernel_rows", boom)
        drawn = drawn_weights(monkeypatch)
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G2"]) is not None
        # the Golay code's words of weight 8 span it
        assert drawn == [list(range(1, 9))] * 2
        drawn.clear()
        assert are_permutation_equivalent(e8e8, d16) is None
        assert drawn == [list(range(1, 5))] * 2

    def test_light_count_rejects_before_profiling_its_weight(self, monkeypatch, fixture_codes):
        # the two codes are read in step, and both streams stop at the first
        # weight whose counts differ, below the heaviest basis weight of c1;
        # column profiles are weighed only for the nonempty weights before it
        profiled, profiles = [], equivalence._column_profiles

        def spy(n, groups):
            profiled.append([len(g) for g in groups])
            return profiles(n, groups)

        monkeypatch.setattr(equivalence, "_column_profiles", spy)
        drawn = drawn_weights(monkeypatch)
        # no word of weight 2 in the Golay code
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G3"]) is None
        assert drawn == [[1, 2]] * 2 and profiled == []
        drawn.clear()
        # one word of weight 2 in each, then 16 and 12 words of weight 4; the
        # basis of c1 would read on to weight 6
        c1, c2 = random_self_dual(24, 3, 0), random_self_dual(24, 4, 1)
        assert are_permutation_equivalent(c1, c2) is None
        assert drawn == [[1, 2, 3, 4]] * 2 and profiled == [[1], [1]]

    def test_profiles_reject_before_the_heaviest_basis_weight(self, monkeypatch):
        # the goldens' n=32 pair with equal weight enumerators: its column
        # profiles first differ at weight 6, while c1's words of weight 6 or
        # less do not span it, so its basis would read on to weight 8
        c1 = random_self_dual(32, 8, 2001)
        c2 = permuted(random_self_dual(32, 12, 2001), random.Random(1))
        light = [x for x in c1.codewords() if x.bit_count() <= 6]
        assert LinearCode(32, light).k < c1.k
        drawn = drawn_weights(monkeypatch)
        assert are_permutation_equivalent(c1, c2) is None
        assert drawn == [list(range(1, 7))] * 2


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
        # the walk32perm golden's pair: 31 calls when every column shares
        # one profile, 26 from the profile classes (1007 and 418 without
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


class TestSearchPinned:
    """The basis search, node for node: how many _map_basis calls a pair
    makes and the witness it returns.  A change to how a node is weighed,
    and not to what is cut, keeps both."""

    @pytest.mark.parametrize(
        "walk, perm, calls, images",
        [
            ((10, 101), 1, 21, "9 31 10 11 28 1 3 15 25 13 26 19 30 16 27 0 21 29 6 14 20 23 12 4 5 17 24 2 7 22 18 8"),
            ((12, 102), 2, 32, "3 26 7 21 24 12 0 14 6 18 4 2 22 5 1 20 11 27 15 29 10 30 23 9 31 8 28 25 13 19 17 16"),
            ((14, 103), 3, 24, "9 24 14 10 28 1 5 3 22 21 13 12 23 16 27 6 7 29 8 25 0 26 2 30 20 31 19 18 15 17 11 4"),
            ((16, 104), 4, 21, "8 5 19 20 26 13 6 10 22 29 14 18 28 21 25 11 16 7 1 30 17 27 0 24 2 4 31 12 23 3 9 15"),
            ((18, 105), 5, 19, "4 23 24 2 26 10 18 27 22 9 19 8 6 20 13 15 29 3 5 1 7 14 0 31 17 30 28 21 25 11 12 16"),
            ((20, 106), 6, 19, "27 8 24 0 14 10 3 13 22 31 2 5 11 1 19 25 28 12 6 30 7 17 26 4 15 18 9 23 16 29 21 20"),
            ((22, 107), 7, 44, "19 8 28 10 27 5 7 22 3 2 9 17 23 25 21 31 24 29 4 1 26 18 11 0 15 14 16 13 12 6 30 20"),
            ((24, 108), 8, 17, "30 5 0 13 31 27 28 22 8 4 21 3 20 26 9 14 1 24 19 29 18 16 7 10 12 15 23 6 25 2 11 17"),
            ((8, 109), 9, 17, "0 6 19 17 31 21 3 24 25 1 27 23 30 12 10 2 29 28 20 22 16 8 11 13 18 15 4 5 14 7 26 9"),
            ((10, 110), 10, 22, "22 4 14 15 8 0 1 13 6 10 26 19 29 2 18 5 16 9 20 31 3 7 24 23 27 12 30 17 11 28 25 21"),
            # the CI step's permuted walk code
            ((18, 1033), 0, 38, "3 7 29 20 19 5 0 10 14 26 17 21 27 23 2 22 4 25 6 18 11 30 9 12 15 16 8 1 13 28 31 24"),
        ],
    )
    def test_permuted_walk_codes(self, monkeypatch, walk, perm, calls, images):
        a = random_self_dual(32, *walk)
        b = permuted(a, random.Random(perm))
        assert len(map_basis_calls(monkeypatch, a, b)) == calls
        assert are_permutation_equivalent(a, b).images == tuple(map(int, images.split()))

    def test_inequivalent_pairs(self, monkeypatch, e8e8, d16):
        # the CI step's pair is told apart by its column profiles, before
        # any search; e8 + e8 and d16 only by exhausting it
        a = random_self_dual(32, 8, 2001)
        b = permuted(random_self_dual(32, 12, 2001), random.Random(1))
        assert map_basis_calls(monkeypatch, a, b) == []
        assert are_permutation_equivalent(a, b) is None
        for c1, c2 in ((e8e8, d16), (d16, e8e8)):
            assert len(map_basis_calls(monkeypatch, c1, c2)) == 29
            assert are_permutation_equivalent(c1, c2) is None

    def test_classes_left_whole_by_the_basis(self):
        # two words of weight 2 in a self-dual code: two pairs of columns
        # equal in every word, which no basis word splits; each class is
        # mapped onto its partner in reverse order
        a = random_self_dual(16, 2, 0)
        b = permuted(a, random.Random(0))
        assert are_permutation_equivalent(a, b).images == (13, 10, 11, 1, 2, 12, 3, 5, 14, 15, 6, 0, 8, 4, 7, 9)


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
        monkeypatch.setattr(equivalence, "_meets", lambda masks, words, known=None: None)
        assert len(map_basis_calls(monkeypatch, a, b)) == uncut
        uncut_witness = are_permutation_equivalent(a, b)
        assert witness is not None and uncut_witness == witness
        assert cut_calls <= cut_at_most < uncut // 10

    def test_colors_cut_what_the_counts_leave(self, monkeypatch):
        # the pairs above: searches with the counts and the colors, then
        # with the counts alone
        codes = [random_self_dual(32, *walk) for walk in [(12, 19), (12, 1015), (24, 1021)]]
        pairs = [(a, permuted(a, random.Random(perm))) for a, perm in zip(codes, [32, 0, 0])]

        def searches():
            return [len(map_basis_calls(monkeypatch, a, b)) for a, b in pairs]

        def witnesses():
            return [are_permutation_equivalent(a, b) for a, b in pairs]

        both, found = searches(), witnesses()
        meets = equivalence._meets
        monkeypatch.setattr(equivalence, "_meets", lambda masks, light, known=None: meets(masks, light)[0])
        assert both == [26, 30, 24] and searches() == [37, 78, 24]
        assert None not in found and witnesses() == found

    def test_depths_that_split_no_class_weigh_nothing(self, monkeypatch):
        # c2's side is weighed at a node with a class of two columns or more
        # exactly when the node's classes are not its parent's
        search, meets = equivalence._map_basis, equivalence._meets
        skipped = 0
        for walk, perm in [((10, 101), 1), ((22, 107), 7), ((18, 1033), 0)]:
            a = random_self_dual(32, *walk)
            b = permuted(a, random.Random(perm))
            nodes, weighed = [], []

            def node(depth, pairs, *rest):
                nodes.append((depth, {m1 for m1, _ in pairs}))
                return search(depth, pairs, *rest)

            def weigh(masks, light, known=None):
                if known is not None:
                    weighed.append(len(nodes) - 1)
                return meets(masks, light, known)

            with monkeypatch.context() as mp:
                mp.setattr(equivalence, "_map_basis", node)
                mp.setattr(equivalence, "_meets", weigh)
                assert are_permutation_equivalent(a, b) is not None
            latest, expected = {}, []
            for t, (depth, classes) in enumerate(nodes):
                latest[depth] = classes
                if any(m & (m - 1) for m in classes):
                    if depth == 0 or classes != latest[depth - 1]:
                        expected.append(t)
                    else:
                        skipped += 1
            assert weighed == expected
        assert skipped > 0

    def test_meets_count_columns_of_each_mask(self):
        words = [0b0111, 0b1100, 0b1010, 0b0111]
        light = equivalence._light(words, 4)
        assert light[0] == [[0, 1, 2], [2, 3], [1, 3], [0, 1, 2]]
        assert light[1] == [[0, 3], [0, 2, 3], [0, 1, 3], [1, 2]]
        # counts in base 5, columns 0-1 then 2-3: 2 + 1*5, 0 + 2*5, 1 + 1*5;
        # no mask of three columns or more, so no colors
        assert equivalence._meets([0b0011, 0b1100], light) == ([6, 7, 7, 10], [])
        # column 0, then columns 1-3: counts 1 + 2*5 and 0 + 2*5, which are
        # the digits 5 and 1 of the colors of columns 1, 2 and 3
        counts, colors = equivalence._meets([0b0001, 0b1110], light)
        assert counts == [10, 10, 11, 11]
        assert colors == sorted([5 + 1 + 5, 5 + 1 + 5, 1 + 1])

    def test_colors_tell_apart_equal_counts(self):
        # two words of weight 2 in one class of four columns: sharing a
        # column or not is the same count, and different colors
        a, b = ([0b0011, 0b0101], [0b0011, 0b1100])
        meets_a, meets_b = (equivalence._meets([0b1111], equivalence._light(w, 4)) for w in (a, b))
        assert meets_a[0] == meets_b[0]
        assert meets_a[1] != meets_b[1]

    def test_meets_kept_by_a_column_permutation(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(3, 12)
            words = [rng.getrandbits(n) | 1 for _ in range(rng.randrange(1, 9))]
            cuts = sorted(rng.sample(range(1, n), rng.randrange(0, 3)))
            masks = [((1 << hi) - 1) ^ ((1 << lo) - 1) for lo, hi in zip([0] + cuts, cuts + [n])]
            images = list(range(n))
            rng.shuffle(images)
            move = CoordinatePermutation(tuple(images)).apply
            moved = [move(BitVector(n, x)).bits for x in words]
            rng.shuffle(moved)
            assert equivalence._meets(masks, equivalence._light(words, n)) == equivalence._meets(
                [move(BitVector(n, m)).bits for m in masks], equivalence._light(moved, n)
            )


def o_meets(masks, words):
    """_meets by its definition: the multiset of each word's tuple of counts
    per mask, and the multiset, over the columns of masks of three or more,
    of the multiset of the tuples of the words covering the column."""
    kinds = [tuple((x & m).bit_count() for m in masks) for x in words]
    big = [i for m in masks if m.bit_count() > 2 for i in range(m.bit_length()) if m >> i & 1]
    colors = Counter(frozenset(Counter(t for t, x in zip(kinds, words) if x >> i & 1).items()) for i in big)
    return Counter(kinds), colors


class TestSetBitLoops:
    """The loops over set bits against loops over every column."""

    def test_permute_bits_per_coordinate(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randrange(0, 65)
            images = list(range(n))
            rng.shuffle(images)
            for x in (0, (1 << n) - 1, rng.getrandbits(n) if n else 0):
                expected = sum(((x >> i) & 1) << images[i] for i in range(n))
                assert equivalence._permute_bits(x, tuple(images)) == expected

    def test_light_columns_and_covers(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randrange(1, 33)
            words = [rng.getrandbits(n) for _ in range(rng.randrange(0, 12))]
            columns, covers, *_ = equivalence._light(words, n)
            assert columns == [[i for i in range(n) if x >> i & 1] for x in words]
            assert covers == [[t for t, x in enumerate(words) if x >> i & 1] for i in range(n)]

    def test_meets_equal_exactly_when_the_multisets_are(self):
        rng = random.Random(43)
        verdicts = Counter()
        for _ in range(600):
            n = rng.randrange(3, 13)
            # a random partition of the columns, in classes of 1 to 5
            columns, masks = list(range(n)), []
            rng.shuffle(columns)
            while columns:
                size = rng.randrange(1, 6)
                masks.append(sum(1 << i for i in columns[:size]))
                columns = columns[size:]
            words = [rng.getrandbits(n) for _ in range(rng.randrange(1, 7))]
            # the other side: the same under a column permutation; or that
            # with one bit of one word flipped; or words of the same counts
            # in each mask, at other columns
            images = list(range(n))
            rng.shuffle(images)
            moved = [equivalence._permute_bits(x, tuple(images)) for x in words]
            moved_masks = [equivalence._permute_bits(m, tuple(images)) for m in masks]
            rng.shuffle(moved)
            change = rng.randrange(3)
            if change == 1:
                moved[0] ^= 1 << rng.randrange(n)
            if change == 2:
                cols = [[i for i in range(n) if m >> i & 1] for m in moved_masks]
                moved = [
                    sum(1 << i for c, m in zip(cols, moved_masks) for i in rng.sample(c, (x & m).bit_count()))
                    for x in moved
                ]
            one = equivalence._meets(masks, equivalence._light(words, n))
            other_light = equivalence._light(moved, n)
            expected, got = o_meets(masks, words), o_meets(moved_masks, moved)
            same = expected == got
            assert (equivalence._meets(moved_masks, other_light) == one) == same
            # with the first side's meets given, counts that differ end early
            assert (equivalence._meets(moved_masks, other_light, one) == one) == same
            verdicts[same, expected[0] == got[0]] += 1
        # equal; unequal counts; equal counts told apart by the colors alone
        assert min(verdicts[True, True], verdicts[False, False], verdicts[False, True]) > 50


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
