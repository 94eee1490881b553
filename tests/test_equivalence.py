import gc
import random
import time
from collections import Counter

import pytest

from sdcodes import code, equivalence, gf2
from sdcodes.code import (
    EnumerationCapError,
    InternalConsistencyError,
    LinearCode,
    _span_words,
    from_generator,
)
from sdcodes.equivalence import (
    CoordinatePermutation,
    _permute_bits,
    _weigh,
    apply_permutation,
    are_permutation_equivalent,
)
from sdcodes.fixtures_io import parse_matrix
from sdcodes.gf2 import BitMatrix, BitVector
from sdcodes.neighborhood import double_pair_code, neighbor_step, neighborhood_of, random_self_dual

from oracles import o_column_coverage, o_equivalent, o_equivalent_by_rows, o_moved, o_rref, to_bits


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

    def test_list_and_tuple_built_are_equal(self):
        p = CoordinatePermutation([1, 0])
        assert p == CoordinatePermutation((1, 0)) and hash(p) == hash(CoordinatePermutation((1, 0)))
        assert p.images == (1, 0) and CoordinatePermutation.identity(2).images == (0, 1)

    def test_identity_and_inverse(self):
        images, inverse = (2, 0, 1, 3), (1, 2, 0, 3)
        for bits in range(16):
            assert _permute_bits(bits, CoordinatePermutation.identity(4).images) == bits
            assert _permute_bits(_permute_bits(bits, images), inverse) == bits
            assert _permute_bits(_permute_bits(bits, inverse), images) == bits

    def test_apply_moves_coordinates(self):
        # coordinate i goes to images[i]
        assert _permute_bits(0b001, (2, 0, 1)) == 0b100
        assert _permute_bits(0b010, (2, 0, 1)) == 0b001

    def test_random_inverse_round_trip(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randrange(1, 30)
            images = list(range(n))
            rng.shuffle(images)
            inverse = [0] * n
            for i, j in enumerate(images):
                inverse[j] = i
            v = rng.getrandbits(n)
            assert _permute_bits(_permute_bits(v, images), inverse) == v


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

    def test_length_40_and_dimension_20_answered(self):
        # no length or dimension is refused as such: the word budget alone
        # bounds the search (lengths past 255 are refused, TestLongCodes)
        long_code = from_generator(
            BitMatrix([BitVector(40, 0b11 << (2 * i)) for i in range(4)], ncols=40)
        )
        moved = permuted(long_code, random.Random(0))
        w = are_permutation_equivalent(long_code, moved)
        assert w is not None and apply_permutation(long_code, w) == moved
        wide_code = LinearCode(20, [1 << i for i in range(20)])
        assert are_permutation_equivalent(wide_code, wide_code) == CoordinatePermutation.identity(20)
        even = LinearCode(21, [1 << i | 1 << 20 for i in range(20)])
        moved = permuted(even, random.Random(1))
        w = are_permutation_equivalent(even, moved)
        assert even.k == 20 and w is not None and apply_permutation(even, w) == moved

    def test_zero_dimensional_codes(self):
        z = from_generator(parse_matrix("0000"))
        assert are_permutation_equivalent(z, z) == CoordinatePermutation.identity(4)


def profile_classes(c, top):
    """The masks of c's columns of equal coverage profile over its words of
    weight up to top, by the oracle, sorted."""
    columns = {}
    for i, p in enumerate(o_column_coverage(c, top)):
        columns[p] = columns.get(p, 0) | 1 << i
    return sorted(columns.values())


def assert_root_split_matches_oracle(c):
    """The search's first weighing, of one class of all columns against the
    words up to some weight: with one mask a word's count is its weight, and
    a column's color its coverage profile."""
    words = list(_span_words(c.rows))[1:]
    weights = sorted({x.bit_count() for x in words})
    # every weight, and the weights up to the middle one
    for top in (weights[-1], weights[(len(weights) - 1) // 2]):
        light = [x for x in words if x.bit_count() <= top]
        counts, _, classes = equivalence._weigh([(1 << c.n) - 1], equivalence._light(light, c.n))
        assert counts == sorted(x.bit_count() for x in light)
        assert sorted(classes) == profile_classes(c, top)


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
            partial += len(c.weight_enumerator()) > 2
            assert_root_split_matches_oracle(c)
        assert zero_columns > 0 and partial > 0

    def test_fixtures(self, fixture_codes):
        for name in ("G3", "G4"):
            assert_root_split_matches_oracle(fixture_codes[name])


def drawn_weights(monkeypatch):
    """Per code that the search streams, the weights it reads from _words_by_weight."""
    drawn, stream = [], equivalence._words_by_weight

    def spy(c, budget):
        weights = []
        drawn.append(weights)
        for w, words in stream(c, budget):
            weights.append(w)
            yield w, words

    monkeypatch.setattr(equivalence, "_words_by_weight", spy)
    return drawn


class TestLightWordsFromRounds:
    def test_no_sweep(self, monkeypatch, fixture_codes, e8e8, d16):
        # no sweep, no weight enumerator and no shortened code: each code's
        # groups come from its Brouwer-Zimmermann rounds, up to the heaviest
        # basis weight of c1
        def boom(*args):
            raise AssertionError("called")

        monkeypatch.setattr(code, "_span_words", boom)
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
        # no column is weighed
        weighed, weigh = [], equivalence._weigh

        def spy(masks, light, known=None):
            weighed.append(masks)
            return weigh(masks, light, known)

        monkeypatch.setattr(equivalence, "_weigh", spy)
        drawn = drawn_weights(monkeypatch)
        # no word of weight 2 in the Golay code
        assert are_permutation_equivalent(fixture_codes["G1"], fixture_codes["G3"]) is None
        assert drawn == [[1, 2]] * 2
        drawn.clear()
        # one word of weight 2 in each, then 16 and 12 words of weight 4; the
        # basis of c1 would read on to weight 6
        c1, c2 = random_self_dual(24, 3, 0), random_self_dual(24, 4, 1)
        assert are_permutation_equivalent(c1, c2) is None
        assert drawn == [[1, 2, 3, 4]] * 2 and weighed == []

    def test_colors_reject_after_the_heaviest_basis_weight(self, monkeypatch):
        # the goldens' n=32 pair with equal weight enumerators: c1's words
        # of weight 6 or less do not span it, so both codes are read on to
        # weight 8, and the first weighing of all columns tells them apart
        # before any search
        c1 = random_self_dual(32, 8, 2001)
        c2 = permuted(random_self_dual(32, 12, 2001), random.Random(1))
        light = [x for x in _span_words(c1.rows) if x.bit_count() <= 6]
        assert LinearCode(32, light).k < c1.k
        drawn = drawn_weights(monkeypatch)
        assert map_basis_calls(monkeypatch, c1, c2) == []
        assert drawn == [list(range(1, 9))] * 2
        assert are_permutation_equivalent(c1, c2) is None


def direct_sum(*codes):
    """The codes side by side, the first on the lowest coordinates."""
    rows, n = [], 0
    for c in codes:
        rows += [r << n for r in c.rows]
        n += c.n
    return LinearCode(n, rows)


def permuted(c, rng):
    """c under a coordinate permutation drawn from rng."""
    images = list(range(c.n))
    rng.shuffle(images)
    return apply_permutation(c, CoordinatePermutation(tuple(images)))


def type2_walk_from_e8x4(count):
    """The first count codes of the Type II walk from e8 + e8 + e8 + e8:
    each a neighbor step by the next doubly-even word of random.Random(0)
    outside the code."""
    c = LinearCode(32, [r << 8 * b for b in range(4) for r in (0xF0, 0xCC, 0xAA, 0xFF)])
    rng, steps = random.Random(0), []
    while len(steps) < count:
        x = BitVector(32, rng.getrandbits(32))
        if x.weight() % 4 == 0 and not c.contains(x):
            c = neighbor_step(c, x)
            steps.append(c)
    return steps


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


def calls_and_words(monkeypatch, c1, c2):
    """How many _map_basis calls deciding c1 against c2 makes, and how many
    light words c2's weighings read, the root's included (spent[0])."""
    spent, search = [], equivalence._map_basis

    def spy(*args):
        spent.append(args[-1])
        return search(*args)

    with monkeypatch.context() as mp:
        mp.setattr(equivalence, "_map_basis", spy)
        are_permutation_equivalent(c1, c2)
    return len(spent), spent[0][0]


def unweighed(masks, light, known=None):
    """_weigh that splits and cuts nothing: the search without colors."""
    return masks if known is not None else ([], [], masks)


def cut_only(masks, light, known=None):
    """_weigh that cuts as colors cut and splits no class."""
    weighed = _weigh(masks, light, known)
    if weighed is None:
        return None
    return masks if known is not None else (*weighed[:2], masks)


class TestProfilePartition:
    """The basis search starts from one class of all columns, split by
    color, which for one class is a column's coverage profile over the light
    words.  No answer depends on it, so these tests count the search."""

    def test_fewer_searches_than_from_one_class(self, monkeypatch):
        # the walk32perm golden's pair: split by colors, one call per depth;
        # searched from one class of all columns without colors, 4121 calls
        a = random_self_dual(32, 12, 19)
        b = permuted(a, random.Random(32))
        searches = []
        for weigh in (equivalence._weigh, unweighed):
            with monkeypatch.context() as mp:
                mp.setattr(equivalence, "_weigh", weigh)
                searches.append(len(map_basis_calls(mp, a, b)))
        assert searches == [a.k + 1, 4121]

    def test_start_classes_are_the_oracle_profile_classes(self, monkeypatch):
        split = 0
        for seed in range(6):
            a = random_self_dual(16, 4 + seed, seed)
            b = permuted(a, random.Random(seed))
            if a == b:
                continue
            # b's classes from the search's first weighing of b's side
            starts, weigh = [], equivalence._weigh

            def spy(masks, light, known=None):
                classes = weigh(masks, light, known)
                if known is not None and not starts:
                    starts.extend(classes)
                return classes

            with monkeypatch.context() as mp:
                mp.setattr(equivalence, "_weigh", spy)
                are_permutation_equivalent(a, b)
            # the light words weigh no more than the middle word of a basis
            # read lightest first: the least weight whose words and the
            # lighter ones span more than k // 2 dimensions
            words = list(_span_words(a.rows))[1:]
            mid = min(
                w
                for w in range(17)
                if LinearCode(16, [x for x in words if x.bit_count() <= w]).k > a.k // 2
            )
            assert sorted(starts) == profile_classes(b, mid)
            split += len(starts) > 1
        assert split > 0


def assert_maps_onto(a, b, images):
    """images map a onto b, checked by the oracles alone: a's rows, moved
    coordinate by coordinate, span b's rows."""
    rows_a, rows_b = ([to_bits(r) for r in c.generator] for c in (a, b))
    assert o_rref(o_moved(rows_a, images)) == o_rref(rows_b)


class TestSearchPinned:
    """The basis search, node for node: how many _map_basis calls a pair
    makes and the witness it returns.  A change to how a node is weighed,
    and not to what is cut or split, keeps both.  Split by colors, each pair
    below makes one call per depth, the least a search that finds a witness
    can make."""

    @pytest.mark.parametrize(
        "walk, perm, calls, images",
        [
            ((10, 101), 1, 17, "26 17 11 10 28 1 5 4 7 16 9 19 30 13 22 0 21 29 6 12 20 23 14 15 3 31 2 24 25 27 18 8"),
            ((12, 102), 2, 17, "3 26 7 21 24 12 22 14 6 18 4 2 0 5 1 20 11 9 15 29 10 30 23 27 31 8 28 25 13 19 17 16"),
            ((14, 103), 3, 17, "6 14 24 22 5 27 28 21 10 3 20 31 11 15 1 9 0 17 19 4 7 30 18 26 13 12 8 2 16 29 23 25"),
            ((16, 104), 4, 17, "23 12 11 10 15 25 29 20 14 6 22 27 17 7 13 19 4 21 3 0 28 18 30 31 9 16 24 5 8 1 2 26"),
            ((18, 105), 5, 17, "4 12 24 2 22 10 18 27 26 9 19 8 6 17 13 15 29 3 5 1 7 14 0 31 20 30 21 28 25 11 23 16"),
            ((20, 106), 6, 17, "29 16 2 9 31 7 19 18 12 14 24 20 17 6 3 4 23 22 1 26 10 11 30 25 21 13 0 28 8 27 15 5"),
            ((22, 107), 7, 17, "28 9 19 10 29 5 7 22 0 14 8 15 23 24 21 13 25 27 6 16 26 18 11 3 17 2 1 31 12 4 30 20"),
            ((24, 108), 8, 17, "18 6 8 19 4 22 28 21 0 31 23 11 20 7 9 1 14 25 13 16 5 29 26 10 12 17 27 30 24 2 3 15"),
            ((8, 109), 9, 17, "24 23 13 5 25 16 18 7 21 11 20 0 15 27 31 6 26 10 12 9 28 8 3 30 17 22 29 1 14 2 4 19"),
            ((10, 110), 10, 17, "4 22 12 28 23 17 3 25 30 9 19 26 27 21 11 7 31 10 24 16 1 5 20 8 29 14 6 0 18 15 13 2"),
            # the CI step's permuted walk code
            ((18, 1033), 0, 17, "3 7 29 20 19 5 0 10 14 26 17 21 27 23 2 22 4 25 6 18 11 30 9 12 15 16 8 1 13 28 31 24"),
        ],
    )
    def test_permuted_walk_codes(self, monkeypatch, walk, perm, calls, images):
        a = random_self_dual(32, *walk)
        b = permuted(a, random.Random(perm))
        assert len(map_basis_calls(monkeypatch, a, b)) == calls
        images = tuple(map(int, images.split()))
        assert are_permutation_equivalent(a, b).images == images
        assert_maps_onto(a, b, images)

    def test_inequivalent_pairs(self, monkeypatch, e8e8, d16):
        # the CI step's pair is told apart by the colors of all columns,
        # before any search; e8 + e8 and d16 only by a search, whose first call
        # finds no image of the first basis word whose halves' colors match
        # (also the one call when colors only cut, and split no class)
        a = random_self_dual(32, 8, 2001)
        b = permuted(random_self_dual(32, 12, 2001), random.Random(1))
        assert map_basis_calls(monkeypatch, a, b) == []
        assert are_permutation_equivalent(a, b) is None
        for c1, c2 in ((e8e8, d16), (d16, e8e8)):
            assert len(map_basis_calls(monkeypatch, c1, c2)) == 1
            assert are_permutation_equivalent(c1, c2) is None

    def test_direct_sums_at_n24(self, monkeypatch, e8, d16):
        # d16 + e8 against e8 + e8 + e8, which share their weight
        # enumerators and the colors of all columns, exhausts the search in one call
        # (also when colors only cut); the other way round takes thousands,
        # and runs in CI
        e8x3, d16e8 = direct_sum(e8, e8, e8), direct_sum(d16, e8)
        assert e8x3.weight_enumerator() == d16e8.weight_enumerator()
        assert len(map_basis_calls(monkeypatch, d16e8, e8x3)) == 1
        assert are_permutation_equivalent(d16e8, e8x3) is None

    @pytest.mark.parametrize(
        "one, other, calls",
        [
            ((1000, 158), (1000, 159), 1),
            ((1000, 24), (1001, 46), 2),
            ((1000, 11), (1000, 22), 2),
            ((1001, 35), (1001, 50), 2),
            ((1000, 23), (1000, 30), 2),
        ],
    )
    def test_walk_pairs_with_equal_enumerators(self, monkeypatch, one, other, calls):
        # n=32 walk codes, as (seed, steps), that the first weighing of all
        # columns leaves together: the first depth or two of the search
        # tell them apart, whatever the permutation
        a, b = (random_self_dual(32, steps, seed) for seed, steps in (one, other))
        assert a.weight_enumerator() == b.weight_enumerator()
        for perm in range(3):
            moved = permuted(b, random.Random(perm))
            assert len(map_basis_calls(monkeypatch, a, moved)) == calls
            assert are_permutation_equivalent(a, moved) is None

    def test_extremal_type2_pair(self, monkeypatch):
        # steps 23 and 26 of the Type II walk that CI runs: two equivalent
        # [32,16,8] codes; classes split by color read fewer light words
        # than classes only cut by colors
        steps = type2_walk_from_e8x4(26)
        a, b = steps[22], steps[25]
        assert a.minimum_distance() == b.minimum_distance() == 8
        assert calls_and_words(monkeypatch, a, b) == (20, 229_400)
        assert_maps_onto(a, b, are_permutation_equivalent(a, b).images)
        monkeypatch.setattr(equivalence, "_weigh", cut_only)
        assert calls_and_words(monkeypatch, a, b) == (20, 534_440)

    def test_classes_left_whole_by_the_basis(self):
        # two words of weight 2 in a self-dual code: two pairs of columns
        # equal in every word, which no basis word splits; each class is
        # mapped onto its partner in order
        a = random_self_dual(16, 2, 0)
        b = permuted(a, random.Random(0))
        images = (2, 3, 12, 5, 1, 10, 11, 13, 7, 9, 0, 6, 4, 8, 14, 15)
        assert are_permutation_equivalent(a, b).images == images
        assert_maps_onto(a, b, images)


class TestWordBudget:
    """The basis search counts the light words that its weighings of c2
    read, the root's included, and raises past EQUIVALENCE_WORD_BUDGET."""

    def test_exhausted_direct_sums_read_a_pinned_count(self, monkeypatch, e8, d16):
        # e8 + e8 + e8 against d16 + e8: 39,187 weighings of 42 light words
        # each exhaust the search, within the budget
        spent, search = [], equivalence._map_basis

        def spy(*args):
            spent.append(args[-1])
            return search(*args)

        monkeypatch.setattr(equivalence, "_map_basis", spy)
        assert are_permutation_equivalent(direct_sum(e8, e8, e8), direct_sum(d16, e8)) is None
        assert spent[0][0] == 1_645_854 < equivalence.EQUIVALENCE_WORD_BUDGET
        assert all(s is spent[0] for s in spent)

    def test_a_lowered_budget_raises_with_the_count(self, monkeypatch, e8e8, d16):
        # e8 + e8 against d16 reads 812 light words in all: a budget of 812
        # lets the search end, and one less stops it at its last weighing
        monkeypatch.setattr(equivalence, "EQUIVALENCE_WORD_BUDGET", 812)
        assert are_permutation_equivalent(e8e8, d16) is None
        monkeypatch.setattr(equivalence, "EQUIVALENCE_WORD_BUDGET", 811)
        with pytest.raises(EnumerationCapError, match="would read 812 light words, past the budget 811"):
            are_permutation_equivalent(e8e8, d16)
        # each code's row sums are drawn within the same budget: a round of
        # this n=32 pair would bring them to 1,392, so it is refused before
        # any weighing, and answered within the real budget
        a = random_self_dual(32, 10, 101)
        moved = permuted(a, random.Random(1))
        with pytest.raises(EnumerationCapError, match="drawn to 1392, past the budget 811$"):
            are_permutation_equivalent(a, moved)
        monkeypatch.undo()
        assert are_permutation_equivalent(a, moved) is not None


def extended_qr(p):
    """The extended binary quadratic residue code of a prime p = -1 mod 8:
    the cyclic shifts of the residues' indicator, each extended by parity."""
    residues = {i * i % p for i in range(1, p)}
    rows = [sum(1 << (q + s) % p for q in residues) for s in range(p)]
    return LinearCode(p + 1, [r | (r.bit_count() & 1) << p for r in rows])


class TestLongCodes:
    """Codes longer than 32 are answered within the word budget, and codes
    longer than 255 are refused."""

    @pytest.mark.parametrize("n,steps", [(48, 40), (64, 60)])
    def test_permuted_walk_codes(self, n, steps):
        a = random_self_dual(n, steps, 0)
        moved = permuted(a, random.Random(1))
        start = time.perf_counter()
        w = are_permutation_equivalent(a, moved)
        assert time.perf_counter() - start < 1
        assert w is not None and apply_permutation(a, w) == moved

    def test_extended_qr_code_at_n32(self):
        xqr32 = extended_qr(31)
        assert xqr32.is_self_dual() and xqr32.minimum_distance() == 8
        assert xqr32.classify() is code.CodeType.TYPE_II
        moved = permuted(xqr32, random.Random(2))
        w = are_permutation_equivalent(xqr32, moved)
        assert w is not None and apply_permutation(xqr32, w) == moved

    def test_length_256_refused(self):
        a = random_self_dual(256, 10, 0)
        with pytest.raises(EnumerationCapError, match="length 256 is past 255"):
            are_permutation_equivalent(a, permuted(a, random.Random(0)))


def weight4_components(c):
    """Sizes of the classes of c's words of weight 4 linked by shared
    columns, in ascending order."""
    words, sizes = [x for x in _span_words(c.rows) if x.bit_count() == 4], []
    while words:
        cover, size = words[0], 0
        while (touching := [x for x in words if x & cover]) and len(touching) > size:
            size = len(touching)
            for x in touching:
                cover |= x
        sizes.append(size)
        words = [x for x in words if not x & cover]
    return sorted(sizes)


class TestUnboundedSearch:
    def test_n24_walk_pair_told_apart_by_neighborhoods(self):
        # two [24, 12, 4] codes with equal weight enumerators, within both
        # caps, which the basis search tells apart only by exhausting it:
        # 280,891 calls, too many for these tests (CI runs it).  A
        # permutation that maps one code onto the other maps its unique
        # c_max, and so its neighborhood, onto the other's; the Type II
        # members of one are e8 + e8 + e8 (three classes of 14 words of
        # weight 4) and another, and of the other d16+ + e8 (14 and 28)
        a, b = random_self_dual(24, 80, 1001), random_self_dual(24, 81, 1001)
        assert a.k == b.k == 12 and a.weight_enumerator() == b.weight_enumerator()
        shapes = [sorted(map(weight4_components, neighborhood_of(c).type2())) for c in (a, b)]
        assert shapes == [[[6, 6, 6], [14, 14, 14]], [[6, 6, 6], [14, 28]]]


class TestLightWordCut:
    """The search splits each class by the colors of its columns and cuts a
    split whose c2 side meets c2's light words otherwise than c1's side
    meets c1's.  Only dead branches go, and no equivalence is lost by a
    split, so the witness is the one the search without colors finds; these
    tests count what is cut."""

    @pytest.mark.parametrize(
        "walk, perm, unsplit, uncut, words",
        [
            ((12, 19), 32, 17, 4121, (144, 888)),
            ((12, 1015), 0, 17, 3509, (168, 896)),
            ((24, 1021), 0, 17, 734, (222, 888)),
        ],
    )
    def test_same_witness_from_far_fewer_searches(self, monkeypatch, walk, perm, unsplit, uncut, words):
        a = random_self_dual(32, *walk)
        b = permuted(a, random.Random(perm))
        cut_calls, split_words = calls_and_words(monkeypatch, a, b)
        witness = are_permutation_equivalent(a, b)
        # nodes cut as colors cut them, and no class split: as many calls,
        # but more candidates weighed, each reading all light words
        monkeypatch.setattr(equivalence, "_weigh", cut_only)
        calls, cut_words = calls_and_words(monkeypatch, a, b)
        assert calls == unsplit and (split_words, cut_words) == words
        assert are_permutation_equivalent(a, b) == witness
        # no class split and no node cut
        monkeypatch.setattr(equivalence, "_weigh", unweighed)
        assert len(map_basis_calls(monkeypatch, a, b)) == uncut
        uncut_witness = are_permutation_equivalent(a, b)
        assert witness is not None and uncut_witness == witness
        # one call per depth, as many as when colors only cut
        assert cut_calls == a.k + 1 == unsplit < uncut // 10

    def test_colors_cut_what_the_counts_leave(self, monkeypatch):
        # the pairs above: searches with the counts and the colors, then
        # with the counts alone, where no word covers a column and every
        # color is 0
        codes = [random_self_dual(32, *walk) for walk in [(12, 19), (12, 1015), (24, 1021)]]
        pairs = [(a, permuted(a, random.Random(perm))) for a, perm in zip(codes, [32, 0, 0])]

        def searches():
            return [len(map_basis_calls(monkeypatch, a, b)) for a, b in pairs]

        def witnesses():
            return [are_permutation_equivalent(a, b) for a, b in pairs]

        both, found = searches(), witnesses()
        weigh = equivalence._weigh

        def counts_alone(masks, light, known=None):
            columns, covers, *digits = light
            return weigh(masks, (columns, [[]] * len(covers), *digits), known)

        monkeypatch.setattr(equivalence, "_weigh", counts_alone)
        assert both == [17, 17, 17] and searches() == [56, 51, 17]
        assert None not in found and witnesses() == found

    def test_depths_that_split_no_class_weigh_nothing(self, monkeypatch, e8e8, d16):
        # node by node: a depth whose basis word splits no class makes one
        # call, or none when its one image is not a word, and weighs
        # nothing; at any other depth, c2's halves are weighed once for each
        # candidate that passes the ones test, up to the one that leads to
        # a witness; c1's side is weighed at the start and once for each
        # depth that splits a class
        search, weigh = equivalence._map_basis, equivalence._weigh
        kinds, totals = Counter(), []
        for c1, c2 in [
            (random_self_dual(32, 4, 2), permuted(random_self_dual(32, 4, 2), random.Random(2))),
            (random_self_dual(32, 10, 101), permuted(random_self_dual(32, 10, 101), random.Random(1))),
            (e8e8, d16),
            # a positive pair whose search backtracks past forced depths
            (random_self_dual(32, 3, 2), permuted(random_self_dual(32, 3, 2), random.Random(2))),
        ]:
            # per open node: weighings of c1's side, of c2's side, and calls
            frames, splitting = [[0, 0, 0]], set()

            def node(depth, pairs, basis, by_weight, *rest):
                frames[-1][2] += 1
                frames.append([0, 0, 0])
                found = search(depth, pairs, basis, by_weight, *rest)
                own = frames.pop()
                if depth == len(basis):
                    assert own == [0, 0, 0]
                    return found
                b = basis[depth]
                passing = [
                    x
                    for x in by_weight.get(b.bit_count(), ())
                    if all((x & m2).bit_count() == (b & m1).bit_count() for m1, m2 in pairs)
                ]
                if not any(m1 & b and m1 & ~b for m1, _ in pairs):
                    assert own == [0, 0, len(passing)] and len(passing) <= 1
                    kinds["forced", found is not None] += 1
                    return found
                assert own[0] == (depth not in splitting)
                splitting.add(depth)
                assert own[2] <= own[1] <= len(passing)
                assert own[1] == len(passing) if found is None else own[2] > 0
                kinds["split", found is not None] += 1
                return found

            def weighing(masks, light, known=None):
                frames[-1][known is not None] += 1
                totals[-1][known is not None] += 1
                return weigh(masks, light, known)

            totals.append([0, 0])
            with monkeypatch.context() as mp:
                mp.setattr(equivalence, "_map_basis", node)
                mp.setattr(equivalence, "_weigh", weighing)
                are_permutation_equivalent(c1, c2)
            assert frames == [[1, 1, 1]]
        # the weighings of c1's side and of c2's: the classes split by color
        # let fewer candidates pass the ones test
        assert totals == [[14, 14], [5, 7], [2, 29], [14, 29]]
        # each kind of node occurs, with and without a witness below it
        assert len(kinds) == 4

    def test_a_forced_image_must_be_a_word(self):
        # one column per class: the basis word splits none, and its one
        # image, the partners of columns 0 and 1, must be one of c2's words
        pairs = [(1 << i, 1 << (3 - i)) for i in range(4)]
        for words, found in (({0b0110}, None), ({0b0110, 0b1100}, pairs)):
            assert equivalence._map_basis(0, pairs, [0b0011], {2: words}, None, None, {}, [0]) == found

    def test_meets_count_columns_of_each_mask(self):
        words = [0b0111, 0b1100, 0b1010, 0b0111]
        light = equivalence._light(words, 4)
        assert light[0] == [[0, 1, 2], [2, 3], [1, 3], [0, 1, 2]]
        assert light[1] == [[0, 3], [0, 2, 3], [0, 1, 3], [1, 2]]
        # counts in base 5, columns 0-1 then 2-3: 2 + 1*5, 0 + 2*5, 1 + 1*5;
        # their digits 1, 5 and 25 in sorted order give the colors 5 + 5,
        # 5 + 1 + 5, 5 + 25 + 5 and 25 + 1 of columns 0 to 3, so each mask
        # splits into its two columns, lower color first
        assert equivalence._weigh([0b0011, 0b1100], light) == (
            [6, 7, 7, 10],
            [(1, 10), (1, 11), (5, 26), (5, 35)],
            [0b0001, 0b0010, 0b1000, 0b0100],
        )
        # column 0, then columns 1-3: counts 1 + 2*5 and 0 + 2*5, which are
        # the digits 5 and 1 of the colors 5 + 1 + 5, 5 + 1 + 5 and 1 + 1
        # of columns 1, 2 and 3; a column alone in its mask keeps it
        assert equivalence._weigh([0b0001, 0b1110], light) == (
            [10, 10, 11, 11],
            [(1, 10), (5, 2), (5, 11), (5, 11)],
            [0b0001, 0b1000, 0b0110],
        )

    def test_colors_tell_apart_equal_counts(self):
        # two words of weight 2 in one class of four columns: sharing a
        # column or not is the same count, and different colors
        a, b = ([0b0011, 0b0101], [0b0011, 0b1100])
        weighed_a, weighed_b = (equivalence._weigh([0b1111], equivalence._light(w, 4)) for w in (a, b))
        assert weighed_a[0] == weighed_b[0]
        assert weighed_a[1] != weighed_b[1]
        assert equivalence._weigh([0b1111], equivalence._light(b, 4), weighed_a) is None
        # the shared column 0 apart from columns 1 and 2, and column 3
        assert weighed_a[2] == [0b1000, 0b0110, 0b0001]

    def test_meets_kept_by_a_column_permutation(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randrange(3, 12)
            words = [rng.getrandbits(n) | 1 for _ in range(rng.randrange(1, 9))]
            cuts = sorted(rng.sample(range(1, n), rng.randrange(0, 3)))
            masks = [((1 << hi) - 1) ^ ((1 << lo) - 1) for lo, hi in zip([0] + cuts, cuts + [n])]
            images = list(range(n))
            rng.shuffle(images)
            moved = [_permute_bits(x, images) for x in words]
            rng.shuffle(moved)
            moved_masks = [_permute_bits(m, images) for m in masks]
            counts, pairs, classes = equivalence._weigh(masks, equivalence._light(words, n))
            moved_classes = [_permute_bits(m, images) for m in classes]
            other_light = equivalence._light(moved, n)
            assert equivalence._weigh(moved_masks, other_light) == (counts, pairs, moved_classes)
            assert equivalence._weigh(moved_masks, other_light, (counts, pairs, classes)) == moved_classes

def o_meets(masks, words):
    """_weigh by its definition: the multiset of each word's tuple of counts
    per mask; and per column, its mask's index and its color, the multiset
    of the tuples of the words covering it."""
    kinds = [tuple((x & m).bit_count() for m in masks) for x in words]
    colors = {
        i: (j, frozenset(Counter(t for t, x in zip(kinds, words) if x >> i & 1).items()))
        for j, m in enumerate(masks)
        for i in range(m.bit_length())
        if m >> i & 1
    }
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
            one = equivalence._weigh(masks, equivalence._light(words, n))
            other_light = equivalence._light(moved, n)
            (kinds, colors), (moved_kinds, moved_colors) = o_meets(masks, words), o_meets(moved_masks, moved)
            expected, got = (kinds, Counter(colors.values())), (moved_kinds, Counter(moved_colors.values()))
            same = expected == got
            assert (equivalence._weigh(moved_masks, other_light)[:2] == one[:2]) == same
            # with the first side's result given, the other side's classes
            # or None: counts that differ end before the colors
            split = equivalence._weigh(moved_masks, other_light, one)
            assert (split is not None) == same
            # each class is the columns of one mask and one color, and is
            # paired with the same mask's columns of the same color
            groups = {}
            for i, color in colors.items():
                groups[color] = groups.get(color, 0) | 1 << i
            assert sorted(one[2]) == sorted(groups.values())
            ones = gf2._ones
            for m, moved_m in zip(one[2], split or []):
                assert {colors[i] for i in ones(m)} == {moved_colors[i] for i in ones(moved_m)}
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
    return from_generator(parse_matrix("\n".join(rows)))


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


class TestSplitKeepsWitnesses:
    """Colors are kept by every equivalence that maps each class onto its
    partner, so a split by colors loses none: the search returns the
    witness of the search without colors, and None exactly when an oracle
    finds no equivalence."""

    def test_random_pairs(self, monkeypatch, e8, e8e8, d16):
        rng = random.Random(44)
        i2 = LinearCode(2, [0b11])
        pairs = [(e8e8, permuted(d16, rng)), (d16, permuted(e8e8, rng))]
        for n in range(8, 25, 2):
            # walk codes a few steps from the double-pair code, which has
            # n/2 pairs of equal columns, and i2 summed with e8
            codes = [random_self_dual(n, rng.randrange(1, 6), rng.randrange(1000)) for _ in range(3)]
            codes += [direct_sum(*[i2] * (n // 2 - 4), e8)] if n > 8 else []
            for c in codes:
                pairs += [(c, permuted(c, rng)), (c, permuted(rng.choice(codes), rng))]
        answers, equal_columns = Counter(), 0
        for c1, c2 in pairs:
            witness = are_permutation_equivalent(c1, c2)
            with monkeypatch.context() as mp:
                mp.setattr(equivalence, "_weigh", unweighed)
                assert are_permutation_equivalent(c1, c2) == witness
            if c1.n <= 12:
                rows1, rows2 = ([to_bits(r) for r in c.generator] for c in (c1, c2))
                assert o_equivalent_by_rows(rows1, rows2, c1.n) == (witness is not None)
                if c1.n <= 8:
                    assert o_equivalent(rows1, rows2, c1.n) == (witness is not None)
            answers[witness is not None, c1.n <= 12] += 1
            # a word of weight 2 in a self-dual code is a pair of equal columns
            equal_columns += any(x.bit_count() == 2 for x in _span_words(c1.rows))
        assert len(pairs) >= 40 and len(answers) == 4 and equal_columns > len(pairs) // 2


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
