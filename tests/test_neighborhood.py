import dataclasses
import math
import random
import re
from collections import Counter
from types import SimpleNamespace
from functools import reduce
from itertools import islice, product
from operator import xor

import pytest

from sdcodes import code, gf2, neighborhood
from sdcodes.code import CodeType, EnumerationCapError, LinearCode, extremal_bound, from_generator
from sdcodes.equivalence import are_permutation_equivalent
from sdcodes.fixtures_io import fixture, parse_matrix
from sdcodes.gf2 import BitMatrix, BitVector
from sdcodes.neighborhood import (
    InternalConsistencyError,
    are_neighbors,
    double_pair_code,
    max_doubly_even_subcode,
    neighbor_step,
    neighborhood_containing,
    neighborhood_of,
    random_self_dual,
    verify_distance2_coincidence,
    verify_no_better_type1,
    walk_self_dual,
)

from oracles import (
    o_by_steps,
    o_codewords,
    o_coset_leader,
    o_coset_leader_bz,
    o_coset_leader_min,
    o_doubly_even_words,
    o_member,
    o_min_distance,
    o_neighborhood_of,
    o_step,
    o_step_certified,
    to_bits,
)
from test_code import first_row_kernel, permuted_copy, self_dual_pool
from test_equivalence import permuted


def refuse_sweep(rows):
    raise AssertionError(f"swept a code of dimension {len(rows)}")


def refuse_search(rows):
    raise AssertionError(f"searched the levels of {len(rows)} rows")


def refuse_searches(monkeypatch):
    """Make any span sweep or Brouwer-Zimmermann search raise."""
    monkeypatch.setattr(code, "_span_words", refuse_sweep)
    monkeypatch.setattr(code, "_level_sums", refuse_search)


def refuse_pairwise(rows):
    raise AssertionError(f"pairwise pass over {len(rows)} rows")


def refuse_elimination(rows):
    raise AssertionError(f"eliminated {len(rows)} rows")


def step_vector(c, rng):
    """Step vectors drawn as walk_self_dual draws them: even weight, outside c."""
    while True:
        x = rng.getrandbits(c.n)
        if x.bit_count() % 2 == 0 and c._reduce(x):
            return x


@pytest.fixture(scope="module")
def triples(fixture_codes):
    return (
        neighborhood_of(fixture_codes["G3"]),
        neighborhood_of(fixture_codes["G4"]),
    )


class TestMaxDoublyEvenSubcode:
    def test_matches_shared_fixture_rows(self, fixture_codes):
        shared1 = from_generator(BitMatrix(list(fixture("G3").rows[:11]), ncols=24))
        shared4 = from_generator(BitMatrix(list(fixture("G4").rows[:11]), ncols=24))
        assert max_doubly_even_subcode(fixture_codes["G3"]) == shared1
        assert max_doubly_even_subcode(fixture_codes["G4"]) == shared4

    def test_matches_filter_oracle(self, fixture_codes):
        # on a self-orthogonal code the doubly-even words form a subcode
        sub = max_doubly_even_subcode(fixture_codes["G3"])
        expected = o_doubly_even_words(
            [to_bits(r) for r in fixture_codes["G3"].generator]
        )
        assert set(o_codewords([to_bits(r) for r in sub.generator])) == expected

    def test_matches_filter_oracle_on_walk_codes(self):
        for seed in range(3):
            c = random_self_dual(16, 12, seed)
            if c.classify() is not CodeType.TYPE_I:
                continue
            sub = max_doubly_even_subcode(c)
            expected = o_doubly_even_words([to_bits(r) for r in c.generator])
            assert set(o_codewords([to_bits(r) for r in sub.generator])) == expected

    def test_rejects_type2(self, fixture_codes):
        with pytest.raises(ValueError, match="Type I"):
            max_doubly_even_subcode(fixture_codes["G1"])

    def test_rejects_non_self_orthogonal(self):
        c = from_generator(parse_matrix("10\n01"))
        with pytest.raises(ValueError):
            max_doubly_even_subcode(c)


class TestReconstruction:
    def test_first_triple(self, fixture_codes, triples):
        nb, _ = triples
        assert set(nb.members) == {
            fixture_codes["G1"], fixture_codes["G2"], fixture_codes["G3"]
        }
        assert sorted(nb.member_distances) == [2, 8, 8]
        assert nb.c_max.k == 11
        assert nb.type1() == fixture_codes["G3"]
        assert nb.type1_distance() == 2
        assert set(nb.type2()) == {fixture_codes["G1"], fixture_codes["G2"]}

    def test_second_triple(self, fixture_codes, triples):
        _, nb = triples
        assert set(nb.members) == {
            fixture_codes["G4"], fixture_codes["G5"], fixture_codes["G6"]
        }
        assert sorted(nb.member_distances) == [4, 6, 8]
        assert nb.type1() == fixture_codes["G4"]
        assert nb.type1_distance() == 6
        assert sorted(nb.type2_distances()) == [4, 8]

    def test_from_c_max_directly(self, fixture_codes, triples):
        nb, _ = triples
        assert neighborhood_containing(nb.c_max) == nb

    def test_deterministic(self, fixture_codes, triples):
        assert neighborhood_of(fixture_codes["G3"]) == triples[0]

    def test_composition(self, triples):
        for nb in triples:
            assert sorted(t.value for t in nb.member_types) == [
                "TypeI", "TypeII", "TypeII",
            ]

    def test_members_pairwise_neighbors_sharing_c_max(self, triples):
        for nb in triples:
            a, b, c = nb.members
            for x, y in ((a, b), (a, c), (b, c)):
                assert are_neighbors(x, y)
                meet = x.intersection(y)
                assert meet == nb.c_max

    def test_representatives_lie_in_members(self, triples):
        for nb in triples:
            for member, rep in zip(nb.members, nb.representatives):
                assert member.contains(rep)
                assert not nb.c_max.contains(rep)


class TestLength8:
    def test_paired_start_code(self):
        dp8 = double_pair_code(8)
        assert dp8.is_self_dual()
        assert dp8.classify() is CodeType.TYPE_I
        assert dp8.minimum_distance() == 2

    def test_neighborhood(self):
        dp8 = double_pair_code(8)
        nb = neighborhood_of(dp8)
        assert dp8 in nb.members
        assert nb.c_max.k == 3
        assert nb.type2_distances() == (4, 4)
        assert len(set(nb.members)) == 3

    def test_distance2_forces_equal_type2_distances(self):
        dp8 = double_pair_code(8)
        nb = neighborhood_of(dp8)
        v = verify_distance2_coincidence(nb)
        assert v["passed"] is True


class TestDoublePairCertificate:
    """The start code of every walk is proved self-dual from its disjoint
    even rows in O(k), not by a pairwise pass; that pass is the oracle."""

    def test_start_codes_run_no_pairwise_pass(self, monkeypatch):
        monkeypatch.setattr(code, "_pairwise_orthogonal", refuse_pairwise)
        for n in (2, 8, 24, 512):
            c = double_pair_code(n)
            assert c.is_self_dual() and c.k == n // 2
            assert c.classify() is CodeType.TYPE_I

    def test_accepts_disjoint_even_rows(self):
        for n in (2, 8, 64):
            rows = double_pair_code(n).rows
            assert neighborhood._disjoint_even(rows) and code._pairwise_orthogonal(rows)
        assert neighborhood._disjoint_even((0b1111, 0b110000, 0b11000000000))

    def test_rejects_overlapping_rows(self):
        # every pair overlaps: in two bits in the first, which stays
        # orthogonal all the same, and in one bit in the others
        for rows in ((0b1111, 0b11), (0b11, 0b110), (0b1100, 0b110110)):
            assert not neighborhood._disjoint_even(rows)

    def test_rejects_odd_rows(self):
        assert not neighborhood._disjoint_even((0b1, 0b1100))
        assert not neighborhood._disjoint_even((0b11, 0b11100))


class TestPreconditions:
    def test_length_not_multiple_of_8(self):
        with pytest.raises(ValueError, match="divisible by 8"):
            neighborhood_of(double_pair_code(12))

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            neighborhood_containing(double_pair_code(8))

    def test_c_max_length_not_multiple_of_8(self):
        with pytest.raises(ValueError, match="requires length divisible by 8, got 12$"):
            neighborhood_containing(double_pair_code(12))

    def test_c_max_not_self_orthogonal(self):
        # dimension 3 at n=8, but rows 0 and 1 meet in one coordinate
        c = LinearCode(8, [0b11, 0b110, 0b11110000])
        assert c.k == 3
        with pytest.raises(ValueError, match="^c_max must be self-orthogonal$"):
            neighborhood_containing(c)

    def test_not_doubly_even(self):
        c = from_generator(parse_matrix("11000000\n00110000\n00001111"))
        with pytest.raises(ValueError, match="doubly-even"):
            neighborhood_containing(c)

    def test_type2_anchor_rejected(self, fixture_codes):
        with pytest.raises(ValueError, match="Type I"):
            neighborhood_of(fixture_codes["G1"])

    def test_non_self_dual_anchor_rejected(self):
        c = from_generator(parse_matrix("1100"))
        with pytest.raises(ValueError, match="self-dual"):
            neighborhood_of(c)

    def test_missing_all_ones_aborts_loudly(self):
        # doubly-even, self-orthogonal, dimension 3, but without the all-ones word
        bad = from_generator(
            parse_matrix("11110000\n00110011\n01010101")
        )
        assert bad.is_self_orthogonal() and bad.k == 3
        with pytest.raises(InternalConsistencyError, match="all-ones"):
            neighborhood_containing(bad)

    def test_c_max_beyond_the_sweep_cap_needs_no_sweep(self, monkeypatch):
        # n=64: c_max has dimension 31, past the sweep's cap of 30, and only
        # the Brouwer-Zimmermann rounds of the members run
        monkeypatch.setattr(code, "_span_words", refuse_sweep)
        nb = neighborhood_of(random_self_dual(64, 21, 0))
        assert nb.c_max.k == 31
        assert sorted(zip(map(str, nb.member_types), nb.member_distances)) == [
            ("TypeI", 6), ("TypeII", 8), ("TypeII", 8)
        ]


class TestNeighborRelation:
    def test_fixture_pairs(self, fixture_codes):
        assert are_neighbors(fixture_codes["G1"], fixture_codes["G2"])
        assert are_neighbors(fixture_codes["G2"], fixture_codes["G3"])
        assert not are_neighbors(fixture_codes["G1"], fixture_codes["G4"])
        assert not are_neighbors(fixture_codes["G2"], fixture_codes["G6"])

    def test_code_is_not_its_own_neighbor(self, fixture_codes):
        assert not are_neighbors(fixture_codes["G1"], fixture_codes["G1"])

    def test_requires_self_dual(self, fixture_codes):
        c = from_generator(BitMatrix([BitVector(24, 0b11)], ncols=24))
        with pytest.raises(ValueError, match="self-dual"):
            are_neighbors(fixture_codes["G1"], c)

    def test_length_mismatch(self, fixture_codes):
        with pytest.raises(ValueError, match="length mismatch"):
            are_neighbors(fixture_codes["G1"], double_pair_code(8))


class TestNeighborStep:
    def test_contract(self):
        dp8 = double_pair_code(8)
        x = BitVector.from_string("10100000")
        stepped = neighbor_step(dp8, x)
        assert stepped.is_self_dual()
        assert stepped.contains(x)
        assert dp8.intersection(stepped).k == 3
        assert are_neighbors(dp8, stepped)

    def test_rejects_inside_vector(self):
        dp8 = double_pair_code(8)
        with pytest.raises(ValueError, match="outside"):
            neighbor_step(dp8, BitVector.from_string("11000000"))

    def test_rejects_odd_weight(self):
        dp8 = double_pair_code(8)
        with pytest.raises(ValueError, match="even weight"):
            neighbor_step(dp8, BitVector.from_string("11100000"))

    def test_rejects_non_self_dual_start(self):
        c = from_generator(parse_matrix("1100"))
        with pytest.raises(ValueError, match="self-dual"):
            neighbor_step(c, BitVector.from_string("1010"))


class TestStepWithoutElimination:
    """A step builds its rows in RREF with O(k) row operations, certifies the
    new code with O(k) more, and still refuses a bad result."""

    def test_matches_elimination_of_the_old_kernel_rows(self):
        for n in range(8, 129, 8):
            rng = random.Random(n)
            c = double_pair_code(n)
            for _ in range(6):
                x = step_vector(c, rng)
                old = first_row_kernel(c.rows, [(r & x).bit_count() & 1 for r in c.rows])
                stepped = neighbor_step(c, BitVector(n, x))
                assert stepped == LinearCode(n, old + [x])
                c = stepped

    def test_walks_match_the_dict_based_step(self, monkeypatch):
        # words drawn as walk_self_dual draws them, those in c included; each
        # step is one of four cases of the row x' inserted: x reduced against
        # c, plus the dropped row r_j when that reduction's product with x is
        # odd, and with a lowest bit q where r_j has a 1 or not; in each, the
        # one pass builds the rows in RREF, so no elimination runs
        monkeypatch.setattr(gf2, "_eliminate", refuse_elimination)
        cases = set()
        for n, steps in [*((n, 6) for n in range(8, 129, 8)), (512, 30), (1024, 30), (2048, 3)]:
            rng = random.Random(n)
            c = double_pair_code(n)
            while steps:
                x = rng.getrandbits(n)
                if x.bit_count() % 2:
                    continue
                stepped = neighborhood._step(c, x)
                assert stepped == o_step(c, x)
                if stepped is not None:
                    t = [(r & x).bit_count() & 1 for r in c.rows]
                    r_j, x_c = c.rows[len(t) - 1 - t[::-1].index(1)], c._reduce(x)
                    odd = (x_c & x).bit_count() & 1
                    x_new = x_c ^ r_j if odd else x_c
                    assert x_new in stepped.rows
                    cases.add((odd, bool(r_j & x_new & -x_new)))
                    c, steps = stepped, steps - 1
        assert cases == {(0, False), (0, True), (1, False), (1, True)}

    def test_walk_at_n512_eliminates_nothing(self, monkeypatch):
        monkeypatch.setattr(gf2, "_eliminate", refuse_elimination)
        c = random_self_dual(512, 3, 5)
        stepped = neighbor_step(c, BitVector(512, step_vector(c, random.Random(5))))
        assert stepped.k == 256 and stepped.is_self_dual()
        with pytest.raises(AssertionError, match="eliminated"):
            LinearCode(512, reversed(stepped.rows))

    def test_one_pairwise_pass_per_code(self, monkeypatch):
        passes = []
        pairwise = code._pairwise_orthogonal

        def counted(rows):
            passes.append(rows)
            return pairwise(rows)

        monkeypatch.setattr(code, "_pairwise_orthogonal", counted)
        for n in (64, 512):
            passes.clear()
            walk = walk_self_dual(n, 3)
            codes = []
            for _ in range(11):
                # what search does with each code of the walk
                codes.append(next(walk))
                codes[-1].classify()
            # the start code is certified by its disjoint even rows and every
            # step by its own certificate, so no pass runs
            assert passes == []
            # an equal code built again is a new object with its own pass
            assert LinearCode(n, codes[-1].rows).is_self_dual()
            assert passes == [codes[-1].rows]

    @pytest.mark.parametrize("wrong", ["unreduced", "stray-bit", "uncut", "dropped-kept"])
    def test_wrong_rows_still_raise(self, monkeypatch, wrong):
        # the rows and mask that the step hands to its certificate, those of
        # a code built with one fault: x' not reduced, x' plus a stray bit,
        # rows of value 1 left uncut, or the dropped row kept; x is drawn with
        # an odd product with x_c, its reduction against c, so that x_c is not
        # yet x', and with two rows of value 1
        c = random_self_dual(64, 4, 1)
        rng = random.Random(1)
        while True:
            x = step_vector(c, rng)
            t = [(r & x).bit_count() & 1 for r in c.rows]
            if (c._reduce(x) & x).bit_count() & 1 and sum(t) >= 2:
                break
        j = len(t) - 1 - t[::-1].index(1)
        r_j, x_c = c.rows[j], c._reduce(x)
        kernel = [r ^ r_j if ti else r for i, (r, ti) in enumerate(zip(c.rows, t)) if i != j]
        rows = {
            "unreduced": kernel + [x_c],
            "stray-bit": kernel + [x_c ^ r_j ^ 1 << 63],
            "uncut": [r for i, r in enumerate(c.rows) if i != j] + [x_c ^ r_j],
            "dropped-kept": kernel + [r_j, x_c ^ r_j],
        }[wrong]
        bad = LinearCode(64, rows)
        assert bad != neighborhood._step(c, x)
        certified = neighborhood._step_certified
        monkeypatch.setattr(
            neighborhood,
            "_step_certified",
            lambda c, x, rows, mask, coset_x: certified(c, x, *handed(bad), coset_x),
        )
        with pytest.raises(InternalConsistencyError, match="non-self-dual"):
            neighbor_step(c, BitVector(64, x))


def handed(out):
    """The rows and pivot mask of a code, as a step hands them to its certificate."""
    return out.rows, out._pivot_mask


def certified_steps():
    """(c, x, out, kernel) for seeded walk steps at n = 8..128, with out built
    the old way: by elimination of x and the first-row kernel rows."""
    for n in range(8, 129, 4):
        rng = random.Random(n)
        c = double_pair_code(n)
        for _ in range(6):
            x = step_vector(c, rng)
            kernel = first_row_kernel(c.rows, [(r & x).bit_count() & 1 for r in c.rows])
            yield c, x, LinearCode(n, kernel + [x]), kernel
            c = neighbor_step(c, BitVector(n, x))


def draw(rng, n, wanted):
    while True:
        w = rng.getrandbits(n)
        if wanted(w):
            return w


class TestStepCertificate:
    """A step's self-duality is certified from that of c in O(k) row
    operations; the pairwise pass over the rows is the oracle.  c and the
    step are the only self-dual codes in c + <x>, so where a perturbed out
    is neither, the verdict must equal the oracle's."""

    def certify(self, c, x, out):
        pivots = neighborhood._step_certified(c, x, *handed(out), c._reduce(x))
        ok = pivots is not None
        # the certificate is sound: whatever it accepts is self-dual, and the
        # pivots it derives are those of the rows
        if ok:
            assert out.k * 2 == out.n and code._pairwise_orthogonal(out.rows)
            assert pivots == out.pivots
        # for a step vector of even weight, it agrees with the dict-based one
        if x.bit_count() % 2 == 0:
            assert ok == o_step_certified(c, x, out)
        return ok

    @staticmethod
    def oracle(c, out):
        return out.k == c.k and code._pairwise_orthogonal(out.rows)

    def test_accepts_every_correct_step(self):
        for c, x, out, _ in certified_steps():
            assert self.certify(c, x, out)
            assert neighbor_step(c, BitVector(c.n, x)) == out

    def test_rejects_a_row_outside_the_extension(self):
        # w . x = 0, so only the coset of w gives it away
        for c, x, out, _ in certified_steps():
            rng = random.Random(c.n)
            cosets = (0, c._reduce(x))
            while True:
                rows = list(out.rows)
                rows[rng.randrange(len(rows))] = draw(
                    rng, c.n, lambda w: (w & x).bit_count() % 2 == 0 and c._reduce(w) not in cosets
                )
                bad = LinearCode(c.n, rows)
                if bad.k == c.k:
                    break
            assert not self.certify(c, x, bad)

    def test_rejects_a_row_not_orthogonal_to_x(self):
        # the row stays in c + <x>, so only its product with x gives it away
        for c, x, out, _ in certified_steps():
            rng = random.Random(c.n)
            odd = [r for r in c.rows if (r & x).bit_count() & 1]
            while True:
                rows = list(out.rows)
                rows[rng.randrange(len(rows))] ^= rng.choice(odd)
                bad = LinearCode(c.n, rows)
                if bad.k == c.k:
                    break
            # bad holds a word with a part of x, so it is not c
            assert not self.certify(c, x, bad) and not self.oracle(c, bad)

    def test_rejects_another_step_vector(self):
        # the kernel rows of x with y in place of x, against either vector
        for c, x, _, kernel in certified_steps():
            rng = random.Random(c.n)
            cosets = (0, c._reduce(x))
            y = draw(rng, c.n, lambda w: w.bit_count() % 2 == 0 and c._reduce(w) not in cosets)
            bad = LinearCode(c.n, kernel + [y])
            assert bad.k == c.k
            assert not self.certify(c, x, bad)
            assert not self.certify(c, y, bad)
            # the words orthogonal to the kernel rows of x are c + <x>
            assert not self.oracle(c, bad)

    def test_rejects_an_odd_row_orthogonal_to_x(self):
        # outside c + <x>, as every word there is even: only its difference
        # from the rows of c gives it away
        for c, x, out, _ in certified_steps():
            rng = random.Random(c.n)
            w = draw(rng, c.n, lambda w: w.bit_count() % 2 == 1 and (w & x).bit_count() % 2 == 0)
            rows = list(out.rows)
            rows[rng.randrange(len(rows))] = w
            bad = LinearCode(c.n, rows)
            assert bad.k == c.k
            assert not self.certify(c, x, bad) and not self.oracle(c, bad)

    def test_rejects_a_wrong_dimension(self):
        for c, x, out, _ in certified_steps():
            for bad in (LinearCode(c.n, out.rows[1:]), LinearCode(c.n, [*out.rows, 1 << (c.n - 1)])):
                assert not self.certify(c, x, bad) and not self.oracle(c, bad)

    def test_rejects_an_odd_step_vector(self):
        # the kernel rows of an odd x and x + u0, with u0 . x = 1, are
        # orthogonal to x and lie in c + <x>, but x + u0 is odd, so the code
        # is not self-orthogonal; the dict-based certificate accepts it
        for c, _, _, _ in certified_steps():
            rng = random.Random(c.n)
            x = draw(rng, c.n, lambda w: w.bit_count() % 2 == 1)
            t = [(r & x).bit_count() & 1 for r in c.rows]
            u0 = c.rows[t.index(1)]
            bad = LinearCode(c.n, first_row_kernel(c.rows, t) + [x ^ u0])
            assert bad.k == c.k and o_step_certified(c, x, bad)
            assert not self.certify(c, x, bad) and not self.oracle(c, bad)

    def test_at_most_four_differences_reduced(self):
        # a step's rows differ from the rows of c at their pivots by 0, the
        # row of c that the kernel cut dropped, x reduced, or their sum; each
        # of those has a bit at one pivot of c at most, the dropped row's
        steps = [(c, x, out) for c, x, out, _ in certified_steps()]
        c = random_self_dual(512, 3, 5)
        rng = random.Random(5)
        for _ in range(5):
            x = step_vector(c, rng)
            steps.append((c, x, neighbor_step(c, BitVector(c.n, x))))
            c = steps[-1][2]
        for c, x, out in steps:
            assert self.certify(c, x, out)
            at_pivot = dict(zip(c.pivots, c.rows))
            diffs = {r ^ at_pivot.get(p, 0) for r, p in zip(out.rows, out.pivots)}
            dropped = c._pivot_mask & ~out._pivot_mask
            assert 1 <= len(diffs) <= 4
            assert not any(d & c._pivot_mask & ~dropped for d in diffs)

    def test_rows_paired_at_equal_pivots_in_each_shape(self):
        # the pivots of a step are those of c with the dropped one replaced by
        # the new one, which is equal to it, below it or above it; in each
        # shape the certificate pairs the rows with c's through the bits where
        # the masks differ: none when equal, else the dropped and the new pivot
        shapes = set()
        for c, x, out, _ in certified_steps():
            dropped = sum(c.pivots) & ~sum(out.pivots)
            new = sum(out.pivots) & ~sum(c.pivots)
            shape = "equal" if not new else "below" if new < dropped else "above"
            changed = out._pivot_mask ^ c._pivot_mask
            assert changed.bit_count() == (0 if shape == "equal" else 2)
            assert changed == dropped | new
            assert self.certify(c, x, out)
            shapes.add(shape)
        assert shapes == {"equal", "below", "above"}

    def test_rejects_pivots_changed_in_two_places(self):
        # two steps from c, each replacing one pivot: where the result's
        # pivots differ from those of c in two places, its mask differs from
        # c's in four bits, not the two of one replaced pivot
        found = 0
        for c, x, out, _ in certified_steps():
            rng = random.Random(c.n + 1)
            for _ in range(4):
                y = step_vector(out, rng)
                two = neighbor_step(out, BitVector(c.n, y))
                if len(set(c.pivots) ^ set(two.pivots)) != 4:
                    continue
                found += 1
                assert (two._pivot_mask ^ c._pivot_mask).bit_count() == 4
                for v in (x, y):
                    assert not self.certify(c, v, two)
        assert found >= 20

    def test_rejects_a_negative_new_pivot(self):
        # c's pivots lie below bit 6, and its step by x = 11 on the last two
        # coordinates is a direct sum with {00, 11} there; with the mask's new
        # pivot -2^6, which has every bit from 6 up, the pivots derived put the
        # row of x first, the only row with a 1 at -2^6, so only q < 2^n
        # refuses it
        c = LinearCode(8, [0b11, 0b1100, 0b1010000, 0b10100000])
        x = 0b11000000
        out = neighbor_step(c, BitVector(8, x))
        assert out.rows == (0b11, 0b1100, 0b110000, x) and out.pivots == (1, 4, 16, 64)
        rows, mask = (x, *out.rows[:3]), out._pivot_mask ^ 64 | -64
        assert LinearCode(8, rows) == out and four_clauses(c, x, rows)
        assert neighborhood._step_certified(c, x, rows, mask, c._reduce(x)) is None


def rref_faults(c, out):
    """Faults injected into the rows and mask of the correct step out from
    c, each as name: (rows, mask); only the RREF clause tells each one from
    a correct step.  The faults at the new pivot q need a step that replaces
    a pivot of c."""
    rows, pivots, mask = list(out.rows), list(out.pivots), out._pivot_mask
    s = next((i for i, p in enumerate(pivots) if not p & c._pivot_mask), None)
    k = len(rows)
    kept = [i for i in range(k) if i != s]
    faults = {}

    def fault(name, rows=rows, mask=mask):
        faults[name] = (tuple(rows), mask)

    # row i plus a later row m: 0 at the pivots it hits no longer
    i, m = kept[len(kept) // 3], kept[-1]
    fault("row-plus-row", [r ^ rows[m] if j == i else r for j, r in enumerate(rows)])
    fault("mask-bit", mask=mask ^ 1)
    fault("bit-n", [r | 3 << c.n if j == kept[0] else r for j, r in enumerate(rows)])
    fault("negative", [r | -1 << c.n if j == kept[0] else r for j, r in enumerate(rows)])
    if s is None:
        return faults
    q, dropped = pivots[s], c._pivot_mask & ~mask
    # the correct rows with a wrong mask: c's, one that keeps the dropped
    # pivot, or one that lacks q
    fault("mask-of-c", mask=c._pivot_mask)
    fault("mask-keeps-dropped", mask=mask | dropped)
    fault("mask-lacks-q", mask=mask ^ q)
    # the new row swapped with a neighbour
    t = s + 1 if s + 1 < k else s - 1
    order = list(range(k))
    order[s], order[t] = t, s
    fault("out-of-order", [rows[j] for j in order])
    # the new row added to a row below it, so that both have a 1 at q
    below = [i for i in kept if pivots[i] < q]
    if below:
        fault("second-1-at-q", [r ^ rows[s] if j == below[-1] else r for j, r in enumerate(rows)])
    # the new row added to the first row above it, so that this row has a 1
    # at q below its pivot; the certificate reads no row after the new one at
    # q, so only the lowest-bit clause refuses it
    if s + 1 < k:
        fault("1-at-q-above", [r ^ rows[s] if j == s + 1 else r for j, r in enumerate(rows)])
    fault("no-1-at-q", [0 if j == s else r for j, r in enumerate(rows)])
    # the new row made the pivot row of another of its bits b, not a pivot of
    # c: the rows of the same code, reduced on another information set
    b = next((1 << e for e in range(q.bit_length(), c.n) if rows[s] >> e & 1 and not c._pivot_mask >> e & 1), 0)
    if b:
        moved = sorted(
            (b if j == s else p, r ^ rows[s] if j != s and r & b else r) for j, (p, r) in enumerate(zip(pivots, rows))
        )
        fault("bit-below-pivot", [r for _, r in moved], mask ^ q ^ b)
    return faults


def four_clauses(c, x, rows):
    """The four self-duality clauses of the step certificate, by the dict-based
    oracle; it reduces each difference against c in full, so any row of c, or
    0, may stand at a row's pivot: here the one at its lowest bit."""
    pivots = [r & -r for r in rows]
    return o_step_certified(c, x, SimpleNamespace(k=len(rows), rows=rows, pivots=pivots))


class TestStepRrefClause:
    """The certificate also proves that the rows a step hands it are the RREF
    with the mask it claims, and derives their pivots, which the stored code
    keeps with no check of its own; so a fault in the rows or the mask is
    refused, also where the four self-duality clauses, and for most the
    pairwise pass, accept it."""

    FAULTS = (
        "row-plus-row",
        "out-of-order",
        "mask-bit",
        "second-1-at-q",
        "1-at-q-above",
        "no-1-at-q",
        "bit-below-pivot",
        "bit-n",
        "negative",
        "mask-of-c",
        "mask-keeps-dropped",
        "mask-lacks-q",
    )

    def test_each_fault_refused(self):
        seen = dict.fromkeys(self.FAULTS, 0)
        for c, x, out, _ in certified_steps():
            assert neighborhood._step_certified(c, x, *handed(out), c._reduce(x)) == out.pivots
            for name, (rows, mask) in rref_faults(c, out).items():
                seen[name] += 1
                assert neighborhood._step_certified(c, x, rows, mask, c._reduce(x)) is None, name
                if name in ("bit-n", "negative"):
                    # past n bits, the membership clause refuses them as well
                    assert not four_clauses(c, x, rows)
                    continue
                assert four_clauses(c, x, rows), name
                # the same span, but for the zero row, so the same code
                self_dual = LinearCode(c.n, rows).k == c.k and code._pairwise_orthogonal(rows)
                assert self_dual == (name != "no-1-at-q"), name
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("fault", FAULTS)
    def test_each_fault_raises_in_a_step(self, monkeypatch, fault):
        c = random_self_dual(64, 4, 1)
        rng = random.Random(1)
        while True:
            x = step_vector(c, rng)
            faults = rref_faults(c, o_step(c, x))
            if fault in faults:
                break
        certified = neighborhood._step_certified
        handed_faulty = faults[fault]
        monkeypatch.setattr(
            neighborhood,
            "_step_certified",
            lambda c, x, rows, mask, coset_x: certified(c, x, *handed_faulty, coset_x),
        )
        with pytest.raises(InternalConsistencyError, match="non-self-dual"):
            neighbor_step(c, BitVector(64, x))

    def test_stored_codes_equal_their_constructors(self):
        # every step of walks at n = 4..128 (n = 2 has none), and 30 steps
        # at n = 512 and 1024 by dense random words
        for n, steps in [*((n, 12) for n in range(4, 129, 2)), (512, 30), (1024, 30)]:
            for stepped in islice(walk_self_dual(n, n), 1, steps + 1):
                built = LinearCode(n, stepped.rows)
                assert (stepped.rows, stepped.pivots, stepped._pivot_mask) == (
                    built.rows,
                    built.pivots,
                    built._pivot_mask,
                )
                assert type(stepped.rows) is type(stepped.pivots) is tuple and stepped.k == built.k
                assert stepped._self_orthogonal is True


class TestWalk:
    def test_deterministic(self):
        assert random_self_dual(16, 10, 42) == random_self_dual(16, 10, 42)
        assert random_self_dual(24, 5, 1) == random_self_dual(24, 5, 1)

    def test_zero_steps_is_start(self):
        assert random_self_dual(8, 0, 9) == double_pair_code(8)

    def test_consecutive_codes_are_neighbors(self):
        walk = walk_self_dual(24, 7)
        codes = [next(walk) for _ in range(6)]
        assert all(c.is_self_dual() for c in codes)
        assert all(are_neighbors(codes[i], codes[i + 1]) for i in range(5))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            double_pair_code(7)
        with pytest.raises(ValueError):
            random_self_dual(16, -1, 0)

    def test_length_two_has_no_step(self):
        # {00, 11} is the only self-dual code of length 2: no neighbor to draw
        assert random_self_dual(2, 0, 3) == double_pair_code(2)
        with pytest.raises(ValueError, match="no neighbors"):
            random_self_dual(2, 1, 0)


class TestVerdicts:
    def test_type1_bound_on_fixtures(self, triples):
        for nb in triples:
            v = verify_no_better_type1(nb)
            assert v["passed"] is True
            d1 = v["details"]["type1_distance"]
            assert d1 <= max(v["details"]["type2_distances"])

    def test_distance2_applicability(self, triples):
        nb1, nb2 = triples
        v1 = verify_distance2_coincidence(nb1)
        assert v1["passed"] is True and v1["details"]["type2_distances"] == [8, 8]
        v2 = verify_distance2_coincidence(nb2)
        assert v2["passed"] is None

    def test_type1_bound_on_walk_neighborhoods(self):
        for seed in (3, 4):
            c = random_self_dual(16, 8, seed)
            if c.classify() is CodeType.TYPE_II:
                continue
            assert verify_no_better_type1(neighborhood_of(c))["passed"] is True


class TestOneSweep:
    """The singly-even words of dual(c_max) are the Type I coset, so the Type
    I representative gives their least weight in closed form; an enumeration
    of the dual is the oracle."""

    def test_singly_even_details_match_the_dual_sweep(self, triples):
        nbs = list(triples)
        nbs += [neighborhood_of(c) for n in (8, 16, 24, 32) for c in type1_walk_codes(n, 3)]
        nbs += [neighborhood_of(c) for c in type1_walk_codes(40, 1)]
        for nb in nbs:
            n = nb.c_max.n
            oracle = nb.c_max.dual().weight_enumerator()
            assert oracle.total() == 1 << (n // 2 + 1)
            singly = {w: c for w, c in oracle.items() if w % 4 == 2}
            w1 = nb.representatives[nb.member_types.index(CodeType.TYPE_I)].weight()
            # 1 lies in c_max, so the heaviest are the complements of the lightest
            assert (min(singly), max(singly)) == (w1, n - w1)
            assert sum(singly.values()) == 1 << (n // 2 - 1)
            assert nb.type1_distance() <= w1

    def test_verdict_enumerates_nothing(self, monkeypatch, triples):
        def refuse(self):
            raise AssertionError("enumerated a code in the verdict")

        monkeypatch.setattr(LinearCode, "dual", refuse)
        monkeypatch.setattr(LinearCode, "weight_enumerator", refuse)
        for nb in triples:
            assert verify_no_better_type1(nb)["passed"] is True
            assert verify_distance2_coincidence(nb)["passed"] is not False


class TestCosetRepresentatives:
    """The Brouwer-Zimmermann search of each member against an oracle that
    enumerates each whole coset of c_max with tuple arithmetic."""

    @pytest.fixture(scope="class")
    def searched(self):
        """(neighborhood, offset of each member's coset) for the fixtures and
        for walk codes at n = 8, 16 and 24."""
        codes = [from_generator(fixture(name)) for name in ("G3", "G4")]
        codes += [c for n, count in ((8, 4), (16, 8), (24, 8)) for c in type1_walk_codes(n, count)]
        out = []
        for c in codes:
            nb = neighborhood_of(c)
            # any row of a member outside c_max offsets its coset
            out.append((nb, [next(r for r in m.rows if nb.c_max._reduce(r)) for m in nb.members]))
        return out

    def test_representatives_match_the_oracle(self, searched):
        for nb, offsets in searched:
            n, rows = nb.c_max.n, [to_bits(r) for r in nb.c_max.generator]
            expected = [o_coset_leader(rows, to_bits(BitVector(n, g))) for g in offsets]
            assert [(r.weight(), r.to01()) for r in nb.representatives] == expected
            assert expected == sorted(expected) and len(set(offsets)) == 3

    def test_distances_match_a_sweep_of_each_member(self, searched):
        for nb, _ in searched:
            swept = [min(w for w in m.weight_enumerator() if w) for m in nb.members]
            assert tuple(swept) == nb.member_distances

    def test_sums_weighed_in_small_chunks(self, monkeypatch, searched):
        # chunks of 3 sums split every round past the first, so the least
        # tagged word and the least weight are each taken over many chunks
        monkeypatch.setattr(code, "_LEVEL_WORDS", 3)
        for nb, _ in searched:
            again = neighborhood_containing(nb.c_max)
            assert again.representatives == nb.representatives
            assert again.member_distances == nb.member_distances
            assert again.members == nb.members

    def test_either_other_offset_as_the_tag_agrees(self, searched):
        # a member's words have odd product with either other offset exactly
        # outside c_max; with its own offset no word is tagged
        for nb, offsets in searched:
            n = nb.c_max.n
            for i, m in enumerate(nb.members):
                found = {o_coset_leader_bz(m, g) for j, g in enumerate(offsets) if j != i}
                ((w, x, d),) = found
                rep = nb.representatives[i]
                assert (w, x, d) == (rep.weight(), rep.to01(), nb.member_distances[i])
                assert len(x) == n and m.contains(BitVector.from_string(x))
                assert o_coset_leader_bz(m, offsets[i])[0] > n

    def test_c_max_distance_matches_the_oracle(self, searched):
        for nb, _ in searched:
            rows = [to_bits(r) for r in nb.c_max.generator]
            assert nb.c_max.minimum_distance() == o_min_distance(rows)

    def test_missing_all_ones_is_refused_before_any_sweep(self, monkeypatch):
        bad = from_generator(parse_matrix("11110000\n00110011\n01010101"))
        refuse_searches(monkeypatch)
        with pytest.raises(InternalConsistencyError, match="all-ones"):
            neighborhood_containing(bad)


def shadow_route_codes(fixture_codes):
    """Type I codes at n = 8..72: the fixtures G3 and G4, walk codes at n <= 48,
    and walk codes at n = 56..72 whose searches are short."""
    codes = [fixture_codes["G3"], fixture_codes["G4"]]
    codes += [c for n in range(8, 49, 8) for c in type1_walk_codes(n, 3)]
    codes += [random_self_dual(n, steps, seed) for n, steps, seed in ((56, 20, 0), (64, 12, 0), (72, 20, 1), (72, 30, 2))]
    assert all(c.classify() is CodeType.TYPE_I for c in codes)
    return codes


class TestShadowRoute:
    """neighborhood_of builds the two other members as steps of c by its
    shadow vector v and by v + u; neighborhood_containing and the former
    route through the whole dual of c_max are the references."""

    @pytest.fixture(scope="class")
    def codes(self, fixture_codes):
        return shadow_route_codes(fixture_codes)

    def test_equals_the_dual_routes_field_by_field(self, codes):
        for c in codes:
            nb = neighborhood_of(c)
            for other in (neighborhood_containing(max_doubly_even_subcode(c)), o_neighborhood_of(c)):
                for f in dataclasses.fields(nb):
                    assert getattr(nb, f.name) == getattr(other, f.name), f.name
                assert [m.rows for m in nb.members] == [m.rows for m in other.members]

    def test_equals_the_dual_route_over_the_pool(self):
        # the members built by the same step as a walk's, on the Type I walk
        # codes of the shared pool
        codes = [c for c in self_dual_pool() if c.classify() is CodeType.TYPE_I]
        assert len(codes) == 12
        for c in codes:
            nb, other = neighborhood_of(c), o_neighborhood_of(c)
            assert nb == other
            assert [m.rows for m in nb.members] == [m.rows for m in other.members]

    def test_shadow_vector_against_its_definition(self, codes):
        # Conway and Sloane (1990): v is a shadow vector of c when v . x is
        # (weight(x) / 2) mod 2 on every x in c; shadow weights are n/2 mod 4
        rng = random.Random(23)
        for c in codes + [double_pair_code(2), random_self_dual(10, 6, 1), random_self_dual(14, 9, 2)]:
            n = c.n
            c_max, v, u = neighborhood._shadow_cut(c)
            words = list(c.rows) + [reduce(xor, (r for r in c.rows if rng.getrandbits(1)), 0) for _ in range(40)]
            assert all((v & x).bit_count() % 2 == x.bit_count() // 2 % 2 for x in words)
            assert v.bit_count() % 4 == n // 2 % 4
            if n <= 24:
                assert not o_member([to_bits(r) for r in c.generator], to_bits(BitVector(n, v)))
            assert c._reduce(v) != 0 and c_max._reduce(u) != 0 and c._reduce(u) == 0
            assert not any((v & r).bit_count() & 1 for r in c_max.rows)

    def test_one_pairwise_pass_and_no_dual(self, monkeypatch, codes):
        passes, duals = [], []
        pairwise, dual_rows = code._pairwise_orthogonal, gf2._dual_rows

        def counted_pass(rows):
            passes.append(tuple(rows))
            return pairwise(rows)

        def counted_dual(rows, n):
            duals.append(tuple(rows))
            return dual_rows(rows, n)

        monkeypatch.setattr(code, "_pairwise_orthogonal", counted_pass)
        monkeypatch.setattr(code, "_dual_rows", counted_dual)
        monkeypatch.setattr(gf2, "_dual_rows", counted_dual)
        for c in codes:
            c = LinearCode(c.n, c.rows)
            passes.clear()
            duals.clear()
            nb = neighborhood_of(c)
            assert passes == [c.rows] and duals == []
            # a c_max built afresh is passed once, and so is the one anchor
            c_max = LinearCode(c.n, nb.c_max.rows)
            passes.clear()
            again = neighborhood_containing(c_max)
            assert again == nb and duals == [c_max.rows]
            assert len(passes) == 2 and passes[0] == c_max.rows
            assert passes[1] in [m.rows for m in nb.members]

    def test_a_step_vector_inside_c_is_refused(self, monkeypatch):
        # with v and u swapped the first step vector, u, lies in c, so its
        # step gives c again, and the exact member types refuse it
        c = random_self_dual(16, 8, 0)
        c_max, v, u = neighborhood._shadow_cut(c)
        monkeypatch.setattr(neighborhood, "_shadow_cut", lambda _: (c_max, u, v))
        with pytest.raises(InternalConsistencyError, match=re.escape("got ['TypeI', 'TypeI', 'TypeII']")):
            neighborhood_of(c)


class TestCosetWeightsModFour:
    """neighborhood_containing picks the Type I member as the coset of c_max
    whose weight is 2 mod 4; a sweep of the whole dual of c_max checks the
    fact it rests on, word by word."""

    def test_each_coset_has_one_weight_mod_4(self, triples):
        cases = [(nb.c_max, nb.type1()) for nb in triples]
        for c in [c for n in (8, 16, 24) for c in type1_walk_codes(n, 8)]:
            cases.append((max_doubly_even_subcode(c), c))
        for c_max, type1 in cases:
            residues = {}
            for w in code._span_words(c_max.dual().rows):
                residues.setdefault(c_max._reduce(w), set()).add(w.bit_count() % 4)
            assert len(residues) == 4 and residues.pop(0) == {0}
            assert all(len(r) == 1 for r in residues.values())
            singly = [g for g, r in residues.items() if r == {2}]
            assert len(singly) == 1 and type1.contains(BitVector(c_max.n, singly[0]))

    def test_no_coset_of_weight_2_mod_4_is_refused(self, monkeypatch, triples):
        # two words outside dual(c_max), zero at its pivots, of weights 4, 4
        # and 8: a dual that gave them would leave no Type I member
        c_max = triples[0].c_max
        free = [1 << i for i in range(c_max.n) if not c_max._pivot_mask >> i & 1]
        rows = [sum(free[:4]), sum(free[4:8])]
        monkeypatch.setattr(LinearCode, "dual", lambda self: LinearCode(self.n, rows))
        with pytest.raises(InternalConsistencyError, match="of weight 2 mod 4, got 0"):
            neighborhood_containing(c_max)


class TestCosetSearchAgainstTheMinForm:
    """_shadow_leaders probes its byte weights and _level_sums builds its
    sums by list comprehensions; one search per member in the former min and
    map forms, kept in oracles, must give each member the same (w, x, d)."""

    @staticmethod
    def members_and_tags(nb):
        offsets = [next(r for r in m.rows if nb.c_max._reduce(r)) for m in nb.members]
        return [(m, offsets[(i + 1) % 3]) for i, m in enumerate(nb.members)]

    def assert_same(self, nbs):
        for nb in nbs:
            found = zip(nb.representatives, nb.member_distances)
            for (m, tag), (rep, d) in zip(self.members_and_tags(nb), found, strict=True):
                assert (rep.weight(), rep.to01(), d) == o_coset_leader_min(m, tag)

    def test_members_of_walk_neighborhoods(self, fixture_codes):
        codes = shadow_route_codes(fixture_codes) + [random_self_dual(80, 40, 2)]
        self.assert_same(map(neighborhood_of, codes))

    @pytest.mark.parametrize("budget", [3, 40])
    def test_past_the_level_cap_and_in_many_chunks(self, monkeypatch, budget):
        monkeypatch.setattr(code, "_LEVEL_WORDS", budget)
        codes = [c for n in (8, 16, 24, 32) for c in type1_walk_codes(n, 2)]
        self.assert_same(map(neighborhood_of, codes))


def type1_walk_codes(n, count):
    codes, seed = [], 0
    while len(codes) < count:
        c = random_self_dual(n, 6 + seed % 7, seed)
        seed += 1
        if c.classify() is CodeType.TYPE_I:
            codes.append(c)
    return codes


class TestDistanceCrossCheck:
    """Member distances come from the tagged search of each member and
    minimum_distance from the untagged one, on the same rounds, so the two
    must agree."""

    def test_members_of_walk_neighborhoods(self):
        anchors = [random_self_dual(32, 12, 19)]
        anchors += [c for n in (16, 24, 32, 40) for c in type1_walk_codes(n, 5)]
        distances = set()
        for c in anchors:
            nb = neighborhood_of(c)
            for member, d in zip(nb.members, nb.member_distances):
                assert member.minimum_distance() == d
                distances.add(d)
        assert {2, 4, 6, 8} <= distances

    def test_distance_at_n40_starts_no_sweep(self, monkeypatch):
        nb = neighborhood_of(random_self_dual(40, 10, 0))
        assert sorted(nb.member_distances) == [6, 8, 8]
        monkeypatch.setattr(code, "_span_words", refuse_sweep)
        levels = code._level_sums
        drawn = []

        def counted(rows, start):
            for sums in levels(rows, start):
                drawn.append(len(rows))
                yield sums

        monkeypatch.setattr(code, "_level_sums", counted)
        for member, d in zip(nb.members, nb.member_distances):
            drawn.clear()
            assert member.k == 20 and member.minimum_distance() == d
            if member.classify() is CodeType.TYPE_II:
                # the bound 2*2 + 1 after two-row sums on the first set rounds
                # up to 8 in a doubly-even code; without the rounding to
                # multiples of 4 it takes three-row sums as well
                assert len(drawn) == 3
        with pytest.raises(AssertionError, match="swept"):
            nb.members[0].weight_enumerator()


class TestPaperLength:
    """n=56 and n=72, the lengths of the paper's singly-even (56, 28, 12) and
    doubly-even (72, 36, 16) questions: no span sweep runs, and at n=56
    minimum_distance runs only in the checks."""

    def test_neighborhood_at_n56(self, monkeypatch):
        def refuse_distance(c):
            raise AssertionError(f"minimum_distance of a code of dimension {c.k}")

        monkeypatch.setattr(code, "_span_words", refuse_sweep)
        with monkeypatch.context() as mp:
            mp.setattr(LinearCode, "minimum_distance", refuse_distance)
            nb = neighborhood_of(random_self_dual(56, 20, 0))
        assert nb.c_max.k == 27
        for member, rep, d in zip(nb.members, nb.representatives, nb.member_distances):
            assert member.minimum_distance() == d
            assert member.contains(rep) and not nb.c_max.contains(rep)
        assert verify_no_better_type1(nb)["passed"] is True
        assert verify_distance2_coincidence(nb)["passed"] is not False

    @pytest.mark.parametrize("n", [64, 72])
    def test_neighborhood_invariant_under_permutation(self, monkeypatch, n):
        # c_max has dimension 31 or 35; the permuted copy's members take
        # other information sets, so their searches draw other rounds
        monkeypatch.setattr(code, "_span_words", refuse_sweep)
        c = random_self_dual(n, 30, 0)
        assert c.classify() is CodeType.TYPE_I
        pairs, copy_pairs = (
            sorted(zip(map(str, nb.member_types), nb.member_distances))
            for nb in map(neighborhood_of, (c, permuted_copy(c, n)))
        )
        assert pairs == copy_pairs
        assert all(d <= extremal_bound(n, CodeType(t)) for t, d in pairs)


# (steps, walk seed) of the 36 Type I codes at n=32 that the benchmark's
# neighborhood workload times, 12 each of distance 2, 4 and 6
POOL_N32 = [
    (10, 1), (8, 2), (11, 3), (11, 4), (17, 5), (20, 6), (13, 7), (11, 8), (15, 9),
    (17, 10), (15, 11), (15, 12), (12, 13), (9, 14), (11, 15), (13, 16), (16, 17),
    (10, 18), (10, 21), (10, 22), (19, 24), (19, 26), (18, 27), (16, 30), (8, 31),
    (17, 33), (10, 87), (12, 124), (8, 198), (12, 217), (12, 218), (8, 246),
    (8, 281), (14, 301), (11, 337), (11, 360),
]


def pool_codes():
    return [random_self_dual(32, steps, seed) for steps, seed in POOL_N32]


def c_max_by(c, x):
    """The words of the self-dual c orthogonal to x, cut from its rows."""
    return LinearCode(c.n, gf2._kernel_rows(c.rows, [(r & x).bit_count() & 1 for r in c.rows]))


class TestOneSearchOfTheShadow:
    """neighborhood_of takes all three members from one search of its Type I
    member and of its shadow (code._shadow_leaders); the former route, the
    same certified steps and one search per member (oracles.o_by_steps), is
    the reference, field by field."""

    @pytest.fixture(scope="class")
    def codes(self):
        """The 36 pool codes at n=32, 301 Type I walk codes, 43 at each
        n = 8, 16, ..., 56, and the n=56 walk code of the CI step, whose
        search draws 55,678 sums where closing a stream only below its
        bound drew 174,433."""
        walks = [c for n in range(8, 57, 8) for c in type1_walk_codes(n, 43)]
        return pool_codes() + walks + [random_self_dual(56, 20, 0)]

    @staticmethod
    def assert_former_route(codes):
        for c in codes:
            nb = neighborhood_of(c)
            c_max, v, u = neighborhood._shadow_cut(c)
            former = o_by_steps(c_max, c, v, u)
            for f in dataclasses.fields(nb):
                assert getattr(nb, f.name) == getattr(former, f.name), f.name

    def test_equals_the_former_route(self, codes):
        assert len(codes) == 338 and {c.n for c in codes} == set(range(8, 57, 8))
        self.assert_former_route(codes)

    @pytest.mark.parametrize("budget", [3, 12])
    def test_equals_the_former_route_in_small_lists(self, monkeypatch, codes, budget):
        # past-base levels from the first round or two on, each weighed in
        # many lists, on the 208 codes at n <= 32; the former route cuts the
        # same levels by islice
        monkeypatch.setattr(code, "_LEVEL_WORDS", budget)
        self.assert_former_route([c for c in codes if c.n <= 32])

    def test_containing_c_max_equals_the_type1_route(self, fixture_codes):
        # the fixtures' c_max, and c_max cut from walk codes of both types by
        # random even words: the code a c_max was cut from is then often
        # Type II, and the one member passed is still the Type I one
        passes = []
        pairwise = code._pairwise_orthogonal

        def counted(rows):
            passes.append(tuple(rows))
            return pairwise(rows)

        rng = random.Random(24)
        codes = [fixture_codes[f"G{i}"] for i in range(1, 7)]
        codes += [random_self_dual(n, 5 + seed, seed) for n in (16, 24, 32, 40, 48) for seed in range(8)]
        cuts = []
        for c in codes:
            if c.classify() is CodeType.TYPE_I:
                cuts.append((c, max_doubly_even_subcode(c)))
            else:
                # a Type II code is a member of every triple of a c_max in it
                cuts += [(c, c_max_by(c, step_vector(c, rng))) for _ in range(3)]
        found = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(code, "_pairwise_orthogonal", counted)
            for c, c_max in cuts:
                passes.clear()
                found.append((c, c_max, neighborhood_containing(c_max), list(passes)))
        for c, c_max, nb, passed in found:
            assert c in nb.members
            assert passed[-1] == tuple(nb.type1().rows) and set(passed) <= {tuple(c_max.rows), passed[-1]}
            other = neighborhood_of(nb.type1())
            for f in dataclasses.fields(nb):
                assert getattr(nb, f.name) == getattr(other, f.name), f.name
            assert [m.rows for m in nb.members] == [m.rows for m in other.members]
        assert len(found) == 54 and sum(c.classify() is CodeType.TYPE_II for c, *_ in found) == 12
        # the first coset word that the reduction of dual(c_max) gives is
        # often of a Type II member, which the route does not pass
        firsts = [(nb, next(filter(None, map(c_max._reduce, c_max.dual().rows)))) for _, c_max, nb, _ in found]
        assert sum(not nb.type1().contains(BitVector(nb.c_max.n, g)) for nb, g in firsts) == 32


class TestSearchWork:
    """What one search of c and its shadow draws, counted exactly."""

    def test_one_information_set_elimination(self, monkeypatch):
        # one per neighborhood where the former route made three, one per
        # member; neighborhood_containing eliminates its Type I member
        calls = []
        generators = code._information_set_generators

        def counted(c):
            calls.append(c)
            return generators(c)

        monkeypatch.setattr(code, "_information_set_generators", counted)
        for c in pool_codes()[::4]:
            calls.clear()
            nb = neighborhood_of(c)
            assert calls == [c]
            calls.clear()
            neighborhood_containing(LinearCode(c.n, nb.c_max.rows))
            assert calls == [c]

    def test_level_sums_drawn_over_the_pool(self, monkeypatch):
        # the former route drew 165,744 level sums over the same 36 codes,
        # 7,256 of them on a code with member distances (6, 8, 8), and one
        # search that closed a stream only below its bound 115,220 and 4,044
        # (TestTiesSettledByABound); the round 0 of the shadow, one start
        # word per generator, is not a level sum
        drawn = count_level_sums(monkeypatch)
        per_code = []
        for c in pool_codes():
            drawn.clear()
            nb = neighborhood_of(c)
            per_code.append((nb.member_distances, sum(drawn)))
        assert sum(n for _, n in per_code) == 40_080
        assert per_code[3] == ((6, 8, 8), 304)
        # c_max of distance 8 beyond both halves' 4: c's stream stops once
        # its bound passes them, not at c_max's least weight (460 sums, and
        # 480 by the former route)
        c = random_self_dual(40, 10, 160)
        drawn.clear()
        nb = neighborhood_of(c)
        assert (nb.member_distances, sum(drawn)) == ((2, 4, 4), 250)
        assert nb.c_max.minimum_distance() == 8

    def test_level_sums_drawn_by_distance_and_equivalence(self, monkeypatch):
        # the other two readers of the rounds: minimum_distance over the
        # pool and over the first 9 codes of a walk at n=40, and the light
        # words of both codes of the two n=32 pairs that CI decides; a code
        # with a row no heavier than its weight divisor, 2 for Type I and 4
        # for Type II, or a self-dual code with a row of weight 4, draws no
        # sum (664 over the pool before the first shortcut, and 420 before the
        # second, which also saves the 20 that codes 5-7 of the walk drew)
        pool = self_dual_pool()
        walk = list(islice(walk_self_dual(40, 7), 9))
        pairs = [
            (random_self_dual(32, 18, 1033), permuted(random_self_dual(32, 18, 1033), random.Random(0))),
            (random_self_dual(32, 8, 2001), permuted(random_self_dual(32, 12, 2001), random.Random(1))),
        ]
        drawn = count_level_sums(monkeypatch)

        def distances(codes):
            found = []
            for c in codes:
                drawn.clear()
                found.append((c.minimum_distance(), sum(drawn)))
            return found

        per_code = distances(pool)
        assert len(per_code) == 36 and sum(n for _, n in per_code) == 368
        assert per_code[-3:] == [(6, 152), (4, 0), (8, 152)]
        assert sum(1 for _, n in per_code if n) == 4
        assert distances(walk) == [(2, 0)] * 4 + [(4, 0)] * 3 + [(4, 40), (6, 230)]
        # the negative pair reads on to weight 8, where its first weighing
        # of all columns tells it apart
        for (c1, c2), equivalent, sums in zip(pairs, (True, False), (1_664, 6_424)):
            drawn.clear()
            assert (are_permutation_equivalent(c1, c2) is not None) == equivalent
            assert sum(drawn) == sums

    def test_shadow_sums_weigh_n_over_2_mod_4(self, monkeypatch):
        # every word of the shadow weighs n/2 mod 4 (Conway and Sloane 1990),
        # and on c a word's tag bit is its weight halved, mod 2: each lifted
        # sum is a word of weight w over its tag bit, so it has w + tag ones
        streams = {}
        levels = code._level_sums

        def weighed(rows, start):
            seen = streams.setdefault(bool(start), [start] if start else [])
            for level in levels(rows, start):
                yield (seen.extend(chunk) or chunk for chunk in level)

        monkeypatch.setattr(code, "_level_sums", weighed)
        codes = pool_codes()[::3] + type1_walk_codes(40, 3) + [random_self_dual(56, 20, 0)]
        for c in codes:
            streams.clear()
            neighborhood_of(c)
            shadow, own = streams[True], streams[False]
            assert shadow and all((s >> 1).bit_count() % 4 == c.n // 2 % 4 for s in shadow)
            assert own and all(s & 1 == (s >> 1).bit_count() // 2 % 2 for s in own)

    def test_cap_counts_the_sums_of_both_streams(self, monkeypatch):
        # n=32, two generators of 16 rows: the shadow's round 0 draws 2 sums,
        # and each later round 2 * C(16, w) per stream.  Round 3 would bring
        # the two streams to 2 + 4 * (16 + 120 + 560) = 2786 sums, past 2^11,
        # where either alone (1394 or 1392) is not; c's stream stops in round
        # 3, so round 4 brings only the shadow's 2 * 1820 more
        c = random_self_dual(32, 20, 6)
        assert neighborhood_of(c).member_distances == (4, 4, 4)
        for cap, message in (
            (11, "round 3 of the Brouwer-Zimmermann search would bring the row sums drawn to 2786, past the enumeration cap 2^11"),
            (12, "round 4 of the Brouwer-Zimmermann search would bring the row sums drawn to 6426, past the enumeration cap 2^12"),
        ):
            monkeypatch.setattr(code, "DEFAULT_ENUMERATION_CAP", cap)
            with pytest.raises(EnumerationCapError) as refused:
                neighborhood_of(c)
            assert str(refused.value) == "instance too large: " + message
        monkeypatch.setattr(code, "DEFAULT_ENUMERATION_CAP", 13)
        assert neighborhood_of(c).member_distances == (4, 4, 4)


class TestTiesSettledByABound:
    """A stream whose least word x weighs exactly its round's bound closes
    once no word that the stream has not drawn can precede x in text order:
    such a word has at least need[j] ones on each information set I_j, and
    code._precedes_unseen bounds the ones on I_j of every word before x."""

    @staticmethod
    def least_unseen(sets, need):
        """The least int with at least need[j] ones on each of the disjoint
        sets[j], None if there is none: the need[j] lowest bits of each, as
        the bits of every other such int on each set add up to no less."""
        if any(a > s.bit_count() for s, a in zip(sets, need)):
            return None
        return sum(sum(sorted(1 << b for b in range(s.bit_length()) if s >> b & 1)[:a]) for s, a in zip(sets, need))

    def test_against_the_least_unseen_word(self):
        # every split of 4 text bits over I_1, I_2 and neither, every need to
        # 3 and every lifted word: x precedes every word with those ones
        # exactly when its text is at most that of the least such word
        for where in product(range(3), repeat=4):
            sets = [sum(2 << b for b, j in enumerate(where) if j == i) for i in (1, 2)]
            for need in product(range(4), repeat=2):
                y = self.least_unseen(sets, need)
                for x in range(32):
                    expected = y is None or x >> 1 <= y >> 1
                    assert code._precedes_unseen(x, sets, list(need)) == expected, (x, sets, need)

    def test_a_stream_closes_at_its_bound(self, monkeypatch):
        # the pool's (6, 8, 8) code: once a round's bound reaches a least
        # weight, no word not yet drawn can precede its least word; waiting
        # for the bound to pass it draws 4,044 sums, the same answer
        c = random_self_dual(32, 11, 4)
        drawn = count_level_sums(monkeypatch)
        settled = spy_on_ties(monkeypatch)
        nb = neighborhood_of(c)
        assert (nb.member_distances, sum(drawn)) == ((6, 8, 8), 304)
        assert any(final for _, final in settled)
        drawn.clear()
        monkeypatch.setattr(code, "_precedes_unseen", lambda x, sets, need: False)
        assert neighborhood_of(c) == nb and sum(drawn) == 4_044
        c_max, v, u = neighborhood._shadow_cut(c)
        assert nb == o_by_steps(c_max, c, v, u)

    def test_an_unseen_word_of_the_tied_weight_comes_first(self, monkeypatch):
        # walk codes where, at a round whose bound a least weight reaches, a
        # word not yet drawn of that weight precedes the least word drawn:
        # the rule keeps the stream open, and a looser one would stop there
        settled = spy_on_ties(monkeypatch)
        for c in (random_self_dual(32, 10, 22), random_self_dual(16, 8, 387)):
            settled.clear()
            nb = neighborhood_of(c)
            c_max, v, u = neighborhood._shadow_cut(c)
            assert nb == o_by_steps(c_max, c, v, u)
            leaders = {r.to01() for r in nb.representatives}
            passed = [final for x, final in settled if format(x >> 1, f"0{c.n}b") not in leaders]
            assert passed and not any(passed)


def count_level_sums(monkeypatch):
    """A list that gets the size of each list of sums _level_sums yields."""
    drawn = []
    levels = code._level_sums

    def counted(rows, start):
        for level in levels(rows, start):
            yield (drawn.append(len(chunk)) or chunk for chunk in level)

    monkeypatch.setattr(code, "_level_sums", counted)
    return drawn


def spy_on_ties(monkeypatch):
    """A list that gets each lifted word that _precedes_unseen is asked
    about, with its answer."""
    settled = []
    precedes = code._precedes_unseen

    def spied(x, sets, need):
        settled.append((x, precedes(x, sets, need)))
        return settled[-1][1]

    monkeypatch.setattr(code, "_precedes_unseen", spied)
    return settled


class TestNeighborGraphCensus:
    """A breadth-first search of the neighbor graph from double_pair_code(n),
    over the steps by every even word, against counts from outside the
    library: ∏_{i=1}^{n/2-1} (2^i + 1) self-dual codes of length n, of which
    ∏_{i=0}^{n/2-2} (2^i + 1) are Type II when 8 | n (MacWilliams and
    Sloane, ch. 19), and 2^{n/2} - 2 neighbors of each code."""

    @pytest.mark.parametrize("n, total", [(2, 1), (4, 3), (6, 15), (8, 135)])
    def test_counts(self, n, total):
        assert total == math.prod(2**i + 1 for i in range(1, n // 2))
        evens = [x for x in range(1 << n) if x.bit_count() % 2 == 0]
        start = double_pair_code(n)
        seen, queue = {start.rows: start}, [start]
        for c in queue:
            outs = [out for x in evens if (out := neighborhood._step(c, x)) is not None]
            steps, reached = {out.rows: out for out in outs}, Counter(out.rows for out in outs)
            assert len(steps) == 2 ** (n // 2) - 2
            # the step of c by any x in D outside c is D, so each neighbor D
            # is reached by its 2^{n/2-1} words outside c, and by no other x
            assert set(reached.values()) <= {2 ** (n // 2 - 1)}
            for rows, out in steps.items():
                if rows not in seen:
                    seen[rows] = out
                    queue.append(out)
        assert len(seen) == total
        type2 = sum(c.classify() is CodeType.TYPE_II for c in seen.values())
        assert type2 == (math.prod(2**i + 1 for i in range(n // 2 - 1)) if n % 8 == 0 else 0)
        if n == 8:
            assert type2 == 30
