import random
from collections import Counter
from functools import reduce
from itertools import chain, combinations
from math import comb
from operator import xor

import pytest

from sdcodes import code, neighborhood
from sdcodes.code import (
    DEFAULT_ENUMERATION_CAP,
    CodeType,
    EnumerationCapError,
    LinearCode,
    _bz_rounds,
    _bz_streams,
    _information_set_generators,
    _level_sums,
    _span_words,
    _words_by_weight,
    extremal_bound,
    from_generator,
)
from sdcodes.fixtures_io import parse_matrix
from sdcodes.gf2 import BitMatrix, BitVector, _insert_rref, _kernel_rows, _rref_pivots
from sdcodes.neighborhood import double_pair_code, neighborhood_of, random_self_dual

from oracles import (
    o_codewords,
    o_level_sums,
    o_member,
    o_min_distance,
    o_orthogonal_all,
    o_rank,
    o_rref,
    o_weight_counts,
    to_bits,
)
from test_gf2 import int_bits, oracle_rref, rows_with_dependencies

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
        m = parse_matrix("1100\n0110\n1010")
        c = from_generator(m)
        assert c.k == 2

    def test_zero_code(self):
        c = from_generator(parse_matrix("0000"))
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


def first_row_kernel(rows, t):
    """The kernel rows as built by dropping the first row of value 1."""
    j = t.index(1)
    return [r ^ rows[j] if t[i] else r for i, r in enumerate(rows) if i != j]


class TestStoredPivots:
    """Every construction path stores the pivots that gf2 defines: the lowest
    set bit of each RREF row."""

    def assert_pivots(self, c):
        assert c.pivots == tuple(r & -r for r in c.rows)
        assert c._pivot_mask == sum(c.pivots)

    def test_every_construction_path(self):
        rng = random.Random(41)
        for _ in range(200):
            c = random_code(rng, max_n=40, max_rows=14)
            other = random_code(rng, max_n=c.n, max_rows=14)
            other = LinearCode(c.n, [r & ((1 << c.n) - 1) for r in other.rows])
            built = [
                c,
                LinearCode(c.n, c.rows),
                LinearCode(c.n, reversed(c.rows)),
                c.dual(),
                c.intersection(other),
                from_generator(c.generator),
            ]
            for d in built:
                self.assert_pivots(d)
            # the RREF input path keeps the rows and the pivots of its check
            assert built[1].rows == c.rows and built[1].pivots == c.pivots
        for n in range(2, 66, 8):
            c = double_pair_code(n)
            self.assert_pivots(c)
            for x in (rng.getrandbits(n) for _ in range(8)):
                if n > 2 and x.bit_count() % 2 == 0 and c._reduce(x):
                    c = neighborhood.neighbor_step(c, BitVector(n, x))
                    self.assert_pivots(c)

    def test_reductions_read_the_stored_pivots(self):
        # a code whose stored pivots were cleared reduces nothing away
        c = random_self_dual(16, 5, 2)
        x = c.rows[0] ^ c.rows[3]
        assert c._reduce(x) == 0
        object.__setattr__(c, "pivots", (0,) * c.k)
        assert c._reduce(x) == x

    def test_certificate_and_information_sets_read_the_stored_mask(self):
        # with the stored mask cleared, the second information set may reuse
        # the pivots of the first, and no difference is cleared at them
        c = random_self_dual(32, 9, 4)
        x = next(x for x in random.Random(4).choices(range(1 << 32), k=99) if x.bit_count() % 2 == 0 and c._reduce(x))
        out, coset_x = neighborhood._step(c, x), c._reduce(x)
        handed = (out.rows, out.pivots, out._pivot_mask)
        gens = _information_set_generators(c)
        assert neighborhood._step_certified(c, x, *handed, coset_x)
        object.__setattr__(c, "_pivot_mask", 0)
        assert _information_set_generators(c) != gens
        assert not neighborhood._step_certified(c, x, *handed, coset_x)


class TestRrefRowHelpers:
    def test_kernel_rows_stay_rref_and_span_the_same_subcode(self):
        rng = random.Random(21)
        for _ in range(300):
            c = random_code(rng, max_n=40, max_rows=12)
            rows = list(c.rows)
            t = [rng.getrandbits(1) for _ in rows]
            out = _kernel_rows(rows, t)
            assert _rref_pivots(out, c.n) is not None
            if 1 not in t:
                assert out == rows
                continue
            old = first_row_kernel(rows, t)
            assert len(out) == c.k - 1
            assert out == oracle_rref(old, c.n)
            assert LinearCode(c.n, out) == LinearCode(c.n, old)

    def test_insert_rref_matches_elimination(self):
        rng = random.Random(22)
        for _ in range(300):
            c = random_code(rng, max_n=40, max_rows=12)
            inside = reduce(xor, (r for r in c.rows if rng.getrandbits(1)), 0)
            for x in (rng.getrandbits(c.n), inside, 0):
                out, pivots = _insert_rref(c.rows, c.pivots, x)
                assert out == oracle_rref(list(c.rows) + [x], c.n)
                assert _rref_pivots(out, c.n) == (pivots, sum(pivots))


class TestSelfOrthogonalityStored:
    def test_not_self_orthogonal_stays_false(self):
        c = LinearCode(6, [0b000011, 0b000110, 0b110000])
        twin = LinearCode(6, [0b000011, 0b000110, 0b110000])
        before = (hash(c), repr(c))
        for _ in range(3):
            assert not c.is_self_orthogonal()
            assert not c.is_self_dual()
            assert c.classify() is CodeType.NOT_SELF_ORTHOGONAL
        assert c == twin and (hash(c), repr(c)) == before == (hash(twin), repr(twin))
        for name in ("_self_orthogonal", "rows", "pivots", "k"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(c, name, True)
        assert not c.is_self_orthogonal()


class TestValueSemantics:
    def test_no_field_assigned_added_or_deleted(self):
        c = LinearCode(4, [0b0011, 0b1100])
        fields = ("n", "k", "rows", "pivots", "_pivot_mask", "_self_orthogonal")
        for name in fields:
            for change in (lambda: setattr(c, name, 1), lambda: delattr(c, name)):
                with pytest.raises(AttributeError, match="^LinearCode is immutable$"):
                    change()
        with pytest.raises(AttributeError, match="^LinearCode is immutable$"):
            c.extra = 1
        assert hash(c) == hash(LinearCode(4, [0b1111, 0b1100]))

    def test_equal_and_hashed_by_value(self):
        c, twin = LinearCode(4, [0b0011, 0b1100]), LinearCode(4, [0b1111, 0b1100])
        assert c == twin and hash(c) == hash(twin)
        assert c != LinearCode(5, c.rows) and c != LinearCode(4, c.rows[:1])
        assert c != (4, c.rows) and c != c.rows and c != 4


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


class TestCutBuiltSpaces:
    """The dual and the intersection are cut from reduced rows; they must
    match the oracles on inputs with dependent and zero rows."""

    def test_dual_matches_the_oracles(self):
        rng = random.Random(32)
        for _ in range(300):
            n, rows = rows_with_dependencies(rng, 40)
            c = LinearCode(n, rows)
            d = c.dual()
            original = [int_bits(r, n) for r in rows]
            assert _rref_pivots(list(d.rows), n) is not None
            assert d.k == n - o_rank(original)
            assert all(o_orthogonal_all(original, int_bits(v, n)) for v in d.rows)
            assert d.dual() == c

    def test_intersection_matches_the_codeword_sets(self):
        rng = random.Random(33)
        for _ in range(150):
            n, rows = rows_with_dependencies(rng, 12)
            # share some rows so that the intersection is rarely trivial
            other = rng.sample(rows, len(rows) // 2) + [0]
            other += [rng.getrandbits(n) for _ in range(rng.randrange(4))]
            a, b = LinearCode(n, rows), LinearCode(n, other)
            meet = a.intersection(b)
            assert _rref_pivots(list(meet.rows), n) is not None

            def words(c):
                return set(o_codewords(o_rref([int_bits(r, n) for r in c.rows]))) | {(0,) * n}

            assert words(meet) == words(a) & words(b)


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
            fixture_codes["G1"].contains(BitVector(23))


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
        words = list(_span_words(c.rows))
        assert len(words) == 1 << c.k
        assert len(set(words)) == len(words)
        assert words[0] == 0
        if c.k:
            expected = o_codewords([to_bits(r) for r in c.generator])
            assert {int_bits(w, c.n) for w in words} == set(expected)

    def test_cap_enforced(self):
        # the sweep would visit 2^31 words; the distance search draws the 31
        # sums of its first round and finds a weight-1 row
        k = DEFAULT_ENUMERATION_CAP + 1
        c = LinearCode(k, [1 << i for i in range(k)])
        with pytest.raises(EnumerationCapError, match="exceeds enumeration cap 30"):
            c.weight_enumerator()
        assert c.minimum_distance() == 1


class TestSweepPastOneBlock:
    """The sweep runs through a table of 2^16 low sums; these codes need several passes."""

    def test_identity_17_enumerates_the_whole_space(self):
        c = LinearCode(17, [1 << i for i in range(17)])
        assert set(_span_words(c.rows)) == set(range(1 << 17))
        assert c.weight_enumerator() == {w: comb(17, w) for w in range(18)}
        assert c.minimum_distance() == 1

    def test_double_pair_36(self):
        c = double_pair_code(36)
        assert c.k == 18
        assert c.weight_enumerator() == {2 * j: comb(18, j) for j in range(19)}
        assert c.minimum_distance() == 2

    def test_four_passes_at_k18(self):
        rng = random.Random(18)
        while True:
            c = LinearCode(40, [rng.getrandbits(40) for _ in range(18)])
            if c.k == 18:
                break
        words = list(_span_words(c.rows))
        assert len(words) == 1 << 18 and words[0] == 0
        assert len(set(words)) == len(words)
        assert all(c._reduce(w) == 0 for w in words)


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


def assert_distance_matches_oracles(c):
    d = c.minimum_distance()
    assert d == min(w.bit_count() for w in _span_words(c.rows) if w)
    # the tuple oracle re-encodes each message bit by bit: kept to k <= 12
    if c.k <= 12:
        assert d == o_min_distance([to_bits(r) for r in c.generator])


def self_dual_pool():
    """Walk codes at n = 8..32 and the Type II members of their neighborhoods."""
    pool = []
    for n in (8, 16, 24, 32):
        for seed in range(3):
            c = random_self_dual(n, 6 + seed, seed)
            pool.append(c)
            if c.classify() is CodeType.TYPE_I:
                pool += neighborhood_of(c).type2()
    return pool


class TestBrouwerZimmermann:
    """minimum_distance searches information sets; the full span sweep is its oracle."""

    def test_random_codes_with_zeroed_columns(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randrange(2, 15)
            keep = rng.getrandbits(n)
            c = LinearCode(n, [rng.getrandbits(n) & keep for _ in range(rng.randrange(1, n + 1))])
            if c.k:
                assert_distance_matches_oracles(c)

    def test_codes_with_a_single_information_set(self):
        rng = random.Random(22)
        seen = 0
        for _ in range(40):
            n = rng.randrange(3, 15)
            c = LinearCode(n, [rng.getrandbits(n) for _ in range(n // 2 + 1)])
            if c.k and len(_information_set_generators(c)) == 1:
                seen += 1
                assert_distance_matches_oracles(c)
        assert seen >= 20

    @pytest.mark.parametrize("divisor", [2, 4])
    def test_codes_with_rows_of_even_weight(self, divisor):
        # rows of weight 0 mod 4 need not span a doubly-even code: only a
        # self-orthogonal one may round the bound up to a multiple of 4
        rng = random.Random(26 + divisor)
        for _ in range(200):
            n = rng.randrange(4, 15)
            rows = [r for r in (rng.getrandbits(n) for _ in range(n)) if r.bit_count() % divisor == 0]
            c = LinearCode(n, rows[: rng.randrange(1, n // 2 + 2)])
            if c.k:
                assert_distance_matches_oracles(c)

    def test_information_sets_are_disjoint_and_systematic(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(2, 15)
            c = LinearCode(n, [rng.getrandbits(n) for _ in range(rng.randrange(1, n + 1))])
            if not c.k:
                continue
            gens = [(g, sum(pivots)) for g, pivots in _information_set_generators(c)]
            assert gens[0] == (list(c.rows), sum(c.pivots))
            used = 0
            for g, mask in gens:
                assert LinearCode(n, g) == c
                # each row owns one column of the set: zero there in every other row
                pivots = [r & ~used & -(r & ~used) for r in g]
                assert all(sum(bool(r & p) for r in g) == 1 for p in pivots)
                assert used & sum(pivots) == 0 and mask == sum(pivots)
                used |= sum(pivots)
            assert len(gens) * c.k <= n

    def test_self_dual_codes_of_both_types(self):
        pool = self_dual_pool()
        types = {c.classify() for c in pool}
        assert types == {CodeType.TYPE_I, CodeType.TYPE_II}
        for c in pool:
            assert c.is_self_dual()
            assert len(_information_set_generators(c)) >= 2
            assert_distance_matches_oracles(c)

    def test_deep_levels_past_the_level_budget(self, monkeypatch):
        # a budget of 12 sums stops the base list after a level or two, so the
        # deeper levels come from row subsets
        monkeypatch.setattr(code, "_LEVEL_WORDS", 12)
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randrange(2, 15)
            c = LinearCode(n, [rng.getrandbits(n) for _ in range(rng.randrange(1, n + 1))])
            if c.k:
                assert_distance_matches_oracles(c)
        for c in self_dual_pool()[::3]:
            assert_distance_matches_oracles(c)

    def test_rounds_bound_every_word_not_yet_seen(self):
        # random codes at n <= 16 whose weight divisors are 1, 2 and 4, even
        # codes that are not self-orthogonal among them, and walk codes; each
        # searched as two streams of _bz_streams, the code and a coset x + C
        # of a random x, and as _bz_rounds, whose bounds are rounded up
        rng = random.Random(29)
        codes = []
        for i in range(150):
            n = rng.randrange(4, 17)
            rows = [r for r in (rng.getrandbits(n) for _ in range(3 * n)) if r.bit_count() % (1, 2, 4)[i % 3] == 0]
            codes.append(LinearCode(n, rows[: rng.randrange(1, n // 2 + 3)]))
        codes += [random_self_dual(n, 4 + seed, seed) for n in (8, 16, 24) for seed in range(8)]
        divisors, uneven_self_orthogonal, cosets = set(), 0, 0
        for c in filter(lambda c: c.k, codes):
            words = set(_span_words(c.rows)) - {0}
            weights = {w.bit_count() for w in words}
            divisors.add(next(d for d in (4, 2, 1) if all(w % d == 0 for w in weights)))
            uneven_self_orthogonal += all(w % 2 == 0 for w in weights) and not c.is_self_orthogonal()
            # x outside C (0 if C is the whole space), reduced to zero on each
            # information set I_j
            x = next(filter(None, (c._reduce(rng.getrandbits(c.n)) for _ in range(64))), 0)
            gens = [(g, sum(pivots)) for g, pivots in _information_set_generators(c)]
            starts = [reduce(xor, (r for r in g if r & mask & x), x) for g, mask in gens]
            assert all(s & mask == 0 for s, (_, mask) in zip(starts, gens))
            streams = [words, {x ^ y for y in words | {0}} if x else set()]
            cosets += bool(x)
            # (a) each stream draws only its own words, (b) no word still
            # unseen is lighter than the bound, and (c) the last round has
            # seen every word
            unseen, rounded, m = [set(words), set(streams[1])], _bz_rounds(c), len(gens)
            for w, i, drawn in _bz_streams([g for g, _ in gens], [[0] * m, starts], [True, bool(x)]):
                for stream, left, sums in zip(streams, unseen, drawn):
                    sums = set(chain.from_iterable(sums))
                    assert sums <= stream
                    left -= sums
                    assert all(y.bit_count() >= m * w + i + 1 for y in left)
                if w:
                    _, bound = next(rounded)
                    assert all(y.bit_count() >= bound for y in unseen[0])
            assert unseen == [set(), set()] and next(rounded, None) is None
        assert divisors == {1, 2, 4} and uneven_self_orthogonal >= 10 and cosets >= 150

    def test_words_by_weight_against_the_sweep(self, fixture_codes):
        # walk codes, the fixtures, random codes that are not self-orthogonal,
        # and codes of k > n/2, with one information set, whose heaviest
        # words lie past the bound of the last round
        rng = random.Random(31)
        codes = [random_self_dual(n, 4 + seed, seed) for n in (8, 16, 24) for seed in range(6)]
        codes += fixture_codes.values()
        for _ in range(60):
            n = rng.randrange(2, 17)
            codes.append(LinearCode(n, [rng.getrandbits(n) for _ in range(rng.randrange(1, n + 1))]))
        past_last_bound = not_self_orthogonal = 0
        for c in filter(lambda c: c.k, codes):
            by_weight = [set() for _ in range(c.n + 1)]
            for x in _span_words(c.rows):
                by_weight[x.bit_count()].add(x)
            assert list(_words_by_weight(c)) == list(enumerate(by_weight))[1:]
            *_, (_, last_bound) = _bz_rounds(c)
            past_last_bound += any(by_weight[last_bound:])
            not_self_orthogonal += not c.is_self_orthogonal()
        assert past_last_bound >= 10 and not_self_orthogonal >= 30

    def test_zero_code_ends(self):
        # no rows: one empty generator, and no word of any weight
        zero = LinearCode(8, [])
        assert _information_set_generators(zero) == [([], [])]
        assert list(_words_by_weight(zero)) == [(w, set()) for w in range(1, 9)]

    def test_lengths_past_255_refused(self):
        # weights are kept in bytes: a code longer than 255 is refused before
        # any sum is drawn, not misread or failed in bytes()
        with pytest.raises(EnumerationCapError, match="length 256 is past 255"):
            next(_words_by_weight(LinearCode(256, [(1 << 256) - 1])))
        assert next(_words_by_weight(LinearCode(255, [(1 << 255) - 1]))) == (1, set())
        assert list(_words_by_weight(LinearCode(255, [(1 << 255) - 1])))[-1] == (255, {(1 << 255) - 1})

    @pytest.mark.parametrize("budget", [1, 5, 12, 1 << 16])
    def test_same_sums_in_the_same_order_as_the_map_form(self, monkeypatch, budget):
        # the list comprehensions of both branches against the former maps,
        # on walk code generators as _bz_rounds takes them and random rows
        monkeypatch.setattr(code, "_LEVEL_WORDS", budget)
        rng = random.Random(26)
        gens = [g for c in (random_self_dual(16, 7, 1), random_self_dual(24, 9, 2)) for g, _ in _information_set_generators(c)]
        gens += [[rng.getrandbits(n) for _ in range(rng.randrange(1, 11))] for n in rng.choices(range(4, 20), k=10)]
        for rows in gens:
            got = [[chunk for chunk in level] for level in _level_sums(rows, 0)]
            assert [list(chain.from_iterable(level)) for level in got] == [list(level) for level in o_level_sums(rows)]
            # each level is weighed in the lists it was built in, none past the budget
            assert all(0 < len(chunk) <= max(budget, 1) for level in got for chunk in level)

    @pytest.mark.parametrize("budget", [1, 12, 1 << 16])
    def test_every_level_against_row_subsets(self, monkeypatch, budget):
        monkeypatch.setattr(code, "_LEVEL_WORDS", budget)
        rng = random.Random(25)
        for _ in range(10):
            n = rng.randrange(4, 20)
            rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, 11))]
            expected = [
                Counter(reduce(xor, subset) for subset in combinations(rows, w))
                for w in range(1, len(rows) + 1)
            ]
            assert [Counter(chain.from_iterable(level)) for level in _level_sums(rows, 0)] == expected


def count_drawn_sums(monkeypatch):
    """Wrap code._level_sums; the returned lists fill with the round of each
    level built and of each sum read from it."""
    built, drawn = [], []
    level_sums = code._level_sums

    def counted(rows, start):
        for w, level in enumerate(level_sums(rows, start), 1):
            built.append(w)
            yield (drawn.extend([w] * len(chunk)) or chunk for chunk in level)

    monkeypatch.setattr(code, "_level_sums", counted)
    return built, drawn


class TestInformationSets:
    """Every code's information sets come from one greedy elimination: a
    self-dual code gets exactly two, its pivots P and the columns N that are
    not pivots, each of the second generator's rows with its one 1 on N at
    its pivot (the rows rule of _distance_query rests on this)."""

    @staticmethod
    def assert_spans_and_is_systematic(c):
        gens = _information_set_generators(c)
        assert gens[0] == (list(c.rows), list(c.pivots))
        used = 0
        for rows, pivots in gens:
            on = sum(pivots)
            assert len(rows) == len(set(pivots)) == c.k and not on & used
            assert all(r & on == p for r, p in zip(rows, pivots))
            assert LinearCode(c.n, rows) == c
            used |= on
        return gens

    def assert_pivots_and_rest(self, c):
        gens = self.assert_spans_and_is_systematic(c)
        (_, pivots), = gens[1:]
        assert sum(pivots) == (1 << c.n) - 1 ^ c._pivot_mask

    def test_random_self_dual_codes_at_n_2_to_128(self, fixture_codes):
        codes = [double_pair_code(2), *fixture_codes.values()]
        codes += [random_self_dual(n, n // 2 + seed, seed) for n in range(4, 129, 2) for seed in range(2)]
        assert {c.classify() for c in codes} == {CodeType.TYPE_I, CodeType.TYPE_II}
        for c in codes:
            self.assert_pivots_and_rest(c)

    def test_walk_codes_at_n_512_and_1024(self):
        for n in (512, 1024):
            self.assert_pivots_and_rest(random_self_dual(n, 60, 0))

    def test_codes_that_are_not_self_dual(self):
        # [2k, k] codes that are not self-orthogonal, and self-orthogonal
        # codes of dimension n/2 - 1
        rng = random.Random(46)
        codes = [LinearCode(n, [rng.getrandbits(n) for _ in range(n // 2)]) for n in rng.choices(range(4, 41, 2), k=30)]
        codes += [neighborhood_of(random_self_dual(n, 9, 1)).c_max for n in (16, 24, 32)]
        half_rate = 0
        for c in filter(lambda c: not c.is_self_dual(), codes):
            half_rate += 2 * c.k == c.n
            self.assert_spans_and_is_systematic(c)
        assert half_rate >= 20


class TestRowSumCap:
    """_bz_streams counts the sums it draws and refuses a round that would take
    the count past 2^DEFAULT_ENUMERATION_CAP, before drawing any of it."""

    def test_refused_before_the_round_that_would_pass_the_cap(self, monkeypatch):
        # d=8 needs round 3 of two generators of 24 rows: the first two rounds
        # draw 2*(24 + 276) = 600 sums, the third would bring them to 4648
        c = random_self_dual(48, 20, 0)
        assert c.k == 24 and len(_information_set_generators(c)) == 2
        assert c.minimum_distance() == 8
        monkeypatch.setattr(code, "DEFAULT_ENUMERATION_CAP", 12)
        built, drawn = count_drawn_sums(monkeypatch)
        with pytest.raises(EnumerationCapError) as refused:
            c.minimum_distance()
        assert str(refused.value) == (
            "instance too large: round 3 of the Brouwer-Zimmermann search would bring "
            "the row sums drawn to 4648, past the enumeration cap 2^12"
        )
        assert built == [1, 1, 2, 2] and Counter(drawn) == {1: 48, 2: 552}

    def test_a_round_that_reaches_the_cap_exactly_is_drawn(self, monkeypatch):
        # 31 rows of weight 2 and one of weight 3 on one information set of
        # 32 columns: the odd row makes the weight divisor 1, below the
        # lightest row, so round 1 draws its 32 = 2^5 sums, and its bound 2
        # settles d = 2
        c = LinearCode(34, [1 << i | 1 << 32 for i in range(31)] + [1 << 31 | 3 << 32])
        assert len(_information_set_generators(c)) == 1
        monkeypatch.setattr(code, "DEFAULT_ENUMERATION_CAP", 5)
        built, drawn = count_drawn_sums(monkeypatch)
        assert c.minimum_distance() == 2
        assert built == [1] and drawn == [1] * 32
        monkeypatch.setattr(code, "DEFAULT_ENUMERATION_CAP", 4)
        with pytest.raises(EnumerationCapError, match=r"round 1 .* to 32, past the enumeration cap 2\^4$"):
            c.minimum_distance()


class TestCosetWeightLimit:
    """_shadow_leaders weighs sums into bytes with their tag bit, and refuses
    a sum that weighs 255 or more instead of misreading it."""

    @pytest.mark.parametrize("n,tag", [(254, 1), (256, 0), (300, 1)])
    def test_heavy_sums_refused(self, n, tag):
        # the all-ones row weighs n plus its tag: 255 is past the limit of
        # 254, and a weight past 255 does not fit a byte
        with pytest.raises(EnumerationCapError, match="weight limit 254"):
            code._shadow_leaders(LinearCode(n, [(1 << n) - 1]), tag)

    def test_light_sums_at_any_length(self):
        # e8^49 + i2^4 at n=400: c_max is e8^49 plus the doubly-even words of
        # i2^4, and the shadow is e8^49 plus the words with one 1 in each of
        # the last four pairs, so the neighborhood is that of i2^4 at n=8,
        # padded; of the tagged words of weight 2, the least text is the
        # last pair, not the least int
        e8 = [0b11110000, 0b11001100, 0b10101010, 0b11111111]
        rows = [r << 8 * j for j in range(49) for r in e8] + [0b11 << 392 + 2 * i for i in range(4)]
        c = LinearCode(400, rows)
        assert c.is_self_dual() and c.classify() is CodeType.TYPE_I
        small = neighborhood_of(double_pair_code(8))
        nb = neighborhood_of(c)
        assert [r.to01() for r in nb.representatives] == ["0" * 392 + r.to01() for r in small.representatives]
        assert nb.representatives[0].to01() == "0" * 398 + "11"
        assert nb.member_distances == small.member_distances == (2, 4, 4)
        assert nb.member_types == small.member_types


def permuted_copy(c, seed):
    """c under a seeded coordinate permutation, built from rows mixed by
    seeded row additions, so its information sets and rounds differ."""
    rng = random.Random(seed)
    images = list(range(c.n))
    rng.shuffle(images)
    rows = [sum(1 << images[i] for i in range(c.n) if r >> i & 1) for r in c.rows]
    for i in range(len(rows)):
        j = rng.randrange(len(rows) - 1)
        rows[i] ^= rows[j + (j >= i)]
    return LinearCode(c.n, rows)


class TestPastTheSweepCap:
    """Distances of codes of dimension 32 to 48, past any 2^30-word sweep,
    checked against a permuted copy, whose search takes other rounds."""

    @pytest.mark.parametrize("n", [64, 72, 80, 96])
    def test_distance_invariant_under_permutation(self, n):
        c = random_self_dual(n, 30, 0)
        copy = permuted_copy(c, n)
        assert c.k > DEFAULT_ENUMERATION_CAP and copy != c
        assert _information_set_generators(copy) != _information_set_generators(c)
        d = c.minimum_distance()
        assert copy.minimum_distance() == d <= extremal_bound(n, c.classify())


def assert_stop_at_matches_sweep(c):
    """For every stop_at in 0..n: the exact d below it, else the weight of a
    codeword between d and stop_at."""
    weights = set(map(int.bit_count, _span_words(c.rows))) - {0}
    d = min(weights)
    if c.k <= 12:
        assert d == o_min_distance([to_bits(r) for r in c.generator])
    for stop_at in range(c.n + 1):
        got = c.minimum_distance(stop_at)
        if stop_at < d:
            assert got == d
        else:
            assert got in weights and d <= got <= stop_at


class TestStopAt:
    """minimum_distance(stop_at) only says whether d exceeds stop_at."""

    def test_random_codes_with_zeroed_columns_and_odd_rows(self):
        rng = random.Random(41)
        odd_rows = 0
        for _ in range(60):
            n = rng.randrange(2, 15)
            keep = rng.getrandbits(n)
            c = LinearCode(n, [rng.getrandbits(n) & keep for _ in range(rng.randrange(1, n + 1))])
            if c.k:
                odd_rows += any(r.bit_count() & 1 for r in c.rows)
                assert_stop_at_matches_sweep(c)
        assert odd_rows >= 20

    def test_codes_with_a_single_information_set(self):
        rng = random.Random(42)
        seen = 0
        for _ in range(40):
            n = rng.randrange(3, 15)
            c = LinearCode(n, [rng.getrandbits(n) for _ in range(n // 2 + 1)])
            if c.k and len(_information_set_generators(c)) == 1:
                seen += 1
                assert_stop_at_matches_sweep(c)
        assert seen >= 20

    def test_walk_codes_and_fixtures(self, fixture_codes):
        codes = [random_self_dual(n, 4 + seed, seed) for n in (8, 16, 24, 32) for seed in range(3)]
        codes += [random_self_dual(40, 10, 0), *fixture_codes.values()]
        for c in codes:
            assert_stop_at_matches_sweep(c)

    @staticmethod
    def refuse_information_sets(monkeypatch):
        def refuse(c):
            raise AssertionError(f"built information sets of {c.k} rows")

        monkeypatch.setattr(code, "_information_set_generators", refuse)

    def test_a_light_row_draws_no_round(self, monkeypatch, fixture_codes):
        # codes whose lightest row weighs more than the divisor of their
        # weights, 2 for Type I and 4 for Type II, and, if self-dual, more
        # than 4, so that a search below it runs; doubly-even rows with an odd
        # overlap give weights 4, 4 and 6
        self.refuse_information_sets(monkeypatch)
        codes = [(c, 2) for c in [random_self_dual(n, 7, 1) for n in (32, 40, 48)] + [fixture_codes["G4"]]]
        codes += [(fixture_codes[name], 4) for name in ("G1", "G2", "G6")] + [(LinearCode(7, [0b1111, 0b1111000]), 2)]
        for c, divisor in codes:
            lightest = min(r.bit_count() for r in c.rows)
            assert lightest > divisor and code._weight_divisor(c) == divisor
            assert lightest >= 6 or not c.is_self_dual()
            for stop_at in range(lightest, c.n + 1):
                assert c.minimum_distance(stop_at) == lightest
            with pytest.raises(AssertionError, match="information sets"):
                c.minimum_distance(lightest - 1)

    def test_a_self_dual_row_of_weight_4_draws_no_round(self, monkeypatch):
        # a self-dual code's rows are round (1, 0) on two disjoint information
        # sets, its pivots and the rest, so every other word weighs at least
        # 3, so 4: a row of weight 4 is a lightest word, though the weights
        # of a Type I code share only the divisor 2
        codes = [random_self_dual(n, n // 2, seed) for n in (12, 16, 20, 24) for seed in range(2)]
        codes = [c for c in codes + [random_self_dual(24, 7, 1)] if min(r.bit_count() for r in c.rows) == 4]
        assert len(codes) == 8
        distances = [o_min_distance([to_bits(r) for r in c.generator]) for c in codes]
        self.refuse_information_sets(monkeypatch)
        for c, d in zip(codes, distances):
            assert d == 4 and c.is_self_dual() and code._weight_divisor(c) == 2
            for stop_at in range(c.n + 1):
                assert c.minimum_distance(stop_at) == 4

    def test_a_row_at_the_weight_divisor_draws_no_round(self, monkeypatch, fixture_codes):
        # every weight is a multiple of the divisor, so no word is lighter
        # than a row of that weight, at any stop_at
        self.refuse_information_sets(monkeypatch)
        codes = [(c, 2) for c in [random_self_dual(n, 6, 1) for n in (8, 16, 40)] + [fixture_codes["G3"]]]
        codes += [(fixture_codes["G5"], 4), (LinearCode(32, [1 << i for i in range(32)]), 1)]
        codes += [(LinearCode(4, [0b11, 0b110]), 2)]
        for c, divisor in codes:
            assert min(r.bit_count() for r in c.rows) == divisor == code._weight_divisor(c)
            for stop_at in range(c.n + 1):
                assert c.minimum_distance(stop_at) == divisor


class TestWeightEnumerator:
    """The weight distribution is a Counter of the nonzero counts, built in
    weight order."""

    def test_fixture_distribution_frozen(self, fixture_codes):
        assert dict(fixture_codes["G1"].weight_enumerator()) == GOLAY_WE
        assert fixture_codes["G6"].weight_enumerator() == GOLAY_WE

    def test_matches_oracle_on_random_codes(self):
        rng = random.Random(16)
        for _ in range(15):
            c = random_code(rng, max_n=12)
            expected = o_weight_counts([to_bits(r) for r in c.generator])
            assert dict(c.weight_enumerator()) == expected

    def test_total_is_code_size(self, fixture_codes):
        we = fixture_codes["G3"].weight_enumerator()
        assert we.total() == 1 << 12
        assert min(w for w in we if w) == 2

    def test_symmetry_for_fixtures(self, fixture_codes):
        # the all-ones word flips each codeword, pairing weights w and n-w
        for c in fixture_codes.values():
            we = c.weight_enumerator()
            assert all(we[w] == we[24 - w] for w in we)

    def test_mapping_interface(self, fixture_codes):
        we = LinearCode(8, [0b1111, 0b11110000]).weight_enumerator()
        assert type(we) is Counter
        # a missing weight reads 0 and is not stored by the read
        assert we[4] == 2 and we[2] == 0 and 2 not in we
        # equal to the dict of its nonzero counts, and to no other
        assert we == {0: 1, 4: 2, 8: 1}
        assert we != {0: 1, 4: 2} and we != {0: 1, 2: 0, 4: 2, 8: 1}
        assert we.total() == 4
        # items in weight order, every count nonzero
        for c in fixture_codes.values():
            items = list(c.weight_enumerator().items())
            assert items == sorted(items) and all(n for _, n in items)

    def test_zero_counts_compare_as_absent(self):
        # between Counters, a weight counted zero times equals one not counted
        padded = Counter({0: 1, 2: 0, 4: 3})
        assert padded == Counter({0: 1, 4: 3})
        assert LinearCode(8, []).weight_enumerator() == Counter({0: 1, 2: 0})


class TestClassification:
    def test_fixture_types(self, fixture_codes):
        for name, (_, t) in EXPECTED.items():
            assert fixture_codes[name].classify() is t

    def test_not_self_orthogonal(self):
        c = from_generator(parse_matrix("100\n010"))
        assert c.classify() is CodeType.NOT_SELF_ORTHOGONAL
        assert not c.is_self_dual()

    def test_self_orthogonal_only(self):
        c = from_generator(parse_matrix("11110000"))
        assert c.classify() is CodeType.SELF_ORTHOGONAL_ONLY

    def test_type_strings(self):
        assert str(CodeType.TYPE_I) == "TypeI"
        assert str(CodeType.TYPE_II) == "TypeII"


class TestExtremalBound:
    def test_frozen_values(self):
        assert extremal_bound(24, CodeType.TYPE_I) == 8
        assert extremal_bound(24, CodeType.TYPE_II) == 8
        assert extremal_bound(8, CodeType.TYPE_II) == 4
        assert extremal_bound(72, CodeType.TYPE_II) == 16
        # Type I: the lesser of 2*floor(n/8) + 2 and Rains' bound for every
        # self-dual code (Rains 1998): 4*floor(n/24) + 4, or + 6 when
        # n = 22 mod 24
        type1 = {2: 2, 16: 4, 22: 6, 46: 10, 56: 12, 72: 16}
        assert {n: extremal_bound(n, CodeType.TYPE_I) for n in type1} == type1

    def test_type2_needs_multiple_of_8(self):
        with pytest.raises(ValueError):
            extremal_bound(12, CodeType.TYPE_II)

    def test_only_self_dual_types(self):
        with pytest.raises(ValueError):
            extremal_bound(8, CodeType.NOT_SELF_ORTHOGONAL)

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError, match="^length must be positive$"):
            extremal_bound(0, CodeType.TYPE_I)
