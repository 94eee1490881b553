import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, strategies as st

from sdcodes.code import LinearCode
from sdcodes.equivalence import CoordinatePermutation, apply_permutation, are_permutation_equivalent
from sdcodes.gf2 import (
    MAX_LENGTH,
    BitMatrix,
    BitVector,
    _from01,
    _dual_rows,
    _eliminate,
    _ones,
    _rref_ints,
    _rref_pivots,
    _to01,
)
from sdcodes.fixtures_io import parse_matrix
from sdcodes.neighborhood import _meet_dimension, double_pair_code, neighbor_step

from oracles import o_orthogonal_all, o_rank, o_rref, o_weight, to_bits


@st.composite
def bitvector(draw, max_length=96):
    n = draw(st.integers(1, max_length))
    return BitVector(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def bitmatrix(draw, max_length=24, max_rows=8):
    n = draw(st.integers(1, max_length))
    nrows = draw(st.integers(0, max_rows))
    rows = [BitVector(n, draw(st.integers(0, (1 << n) - 1))) for _ in range(nrows)]
    return BitMatrix(rows, ncols=n)


def unit_rows(n):
    """The n x n identity matrix."""
    return BitMatrix([BitVector(n, 1 << i) for i in range(n)])


class TestBitVector:
    def test_construction_bounds(self):
        with pytest.raises(ValueError):
            BitVector(0, 0)
        with pytest.raises(ValueError):
            BitVector(4, 16)
        with pytest.raises(ValueError):
            BitVector(4, -1)
        with pytest.raises(ValueError):
            BitVector(1 << 17, 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match="^coordinate 3 out of range for length 3$"):
            BitVector(3)[3]

    def test_factories(self):
        assert BitVector(5).to01() == "00000"
        assert BitVector.ones(3).to01() == "111"
        v = BitVector.from_string("10110")
        assert v.to01() == "10110"
        assert v.bits == 1 | 1 << 2 | 1 << 3
        with pytest.raises(ValueError):
            BitVector.from_string("10a")

    def test_from_string_errors(self):
        with pytest.raises(ValueError, match=r"^position 3: invalid symbol 'x'$"):
            BitVector.from_string("10x")
        for text in ("", "   "):
            with pytest.raises(ValueError, match="vector length must be in"):
                BitVector.from_string(text)

    def test_from_string_at_max_length(self):
        text = "1" + "0" * (MAX_LENGTH - 2) + "1"
        v = BitVector.from_string(text)
        assert v.length == MAX_LENGTH and v.bits == 1 | 1 << (MAX_LENGTH - 1)
        assert BitVector.from_string(" ".join(text)) == v
        with pytest.raises(ValueError, match="vector length must be in"):
            BitVector.from_string(text + "0")

    @given(bitvector(max_length=300))
    def test_from01_inverts_to01(self, v):
        assert _from01(_to01(v.bits, v.length)) == (v.length, v.bits)

    def test_indexing_and_iteration(self):
        v = BitVector.from_string("0110")
        assert [v[i] for i in range(4)] == [0, 1, 1, 0]
        assert len(v) == 4

    def test_xor_and_and(self):
        a = BitVector.from_string("1100")
        b = BitVector.from_string("0110")
        assert (a ^ b).to01() == "1010"
        assert (a + b) == (a ^ b)
        assert (a & b).to01() == "0100"
        with pytest.raises(ValueError, match="length mismatch"):
            a ^ BitVector.from_string("110")

    def test_hash_and_eq(self):
        a = BitVector.from_string("101")
        assert a == BitVector(3, 0b101)
        assert a != BitVector(4, 0b101)
        assert len({a, BitVector(3, 0b101), BitVector(3, 0b001)}) == 2

    @given(bitvector())
    def test_weight_matches_oracle(self, v):
        assert v.weight() == o_weight(to_bits(v))

    def test_support_lists_set_bits_at_every_length(self):
        # _ones lists the support: the set-bit loop against a loop over every
        # coordinate, up to 4096
        rng = random.Random(7)
        for n in (1, 2, 63, 64, 65, 511, 4096):
            for bits in (0, 1 << (n - 1), (1 << n) - 1, rng.getrandbits(n), 1 << rng.randrange(n)):
                assert _ones(bits) == [i for i in range(n) if bits >> i & 1]


class TestValueTypes:
    """BitVector and BitMatrix are values: frozen, and compared and hashed
    by their fields."""

    @pytest.mark.parametrize(
        "value, fields",
        [(BitVector(3, 0b101), ("length", "bits")), (unit_rows(3), ("rows", "ncols"))],
        ids=["vector", "matrix"],
    )
    def test_frozen(self, value, fields):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert all(hasattr(value, name) for name in fields) and not hasattr(value, "extra")

    def test_equal_and_hashed_by_value(self):
        v, m = BitVector(3, 0b101), unit_rows(3)
        assert v == BitVector(3, 0b101) and hash(v) == hash(BitVector(3, 0b101))
        assert m == unit_rows(3) and hash(m) == hash(unit_rows(3))
        assert BitMatrix([], ncols=3) != BitMatrix([], ncols=4)
        assert m != BitMatrix(m.rows[:2], ncols=3)
        for value, fields in ((v, (3, 0b101)), (m, (m.rows, 3))):
            assert value != fields and all(value != f for f in fields)

    def test_repr_and_row_indexing(self):
        rows = [BitVector(4, 0b0110), BitVector(4, 0b1001)]
        m = BitMatrix(rows)
        assert repr(rows[0]) == "BitVector('0110')"
        assert repr(m) == "BitMatrix(2x4)"
        assert m[0] is rows[0] and m[1] is rows[1] and m[-1] is rows[1]

    def test_matrix_from_any_iterable_of_rows(self):
        rows = [BitVector(4, 0b0011), BitVector(4, 0b0110)]
        built = {BitMatrix(rows), BitMatrix(tuple(rows)), BitMatrix(r for r in rows)}
        assert len(built) == 1 and built.pop().rows == tuple(rows)


C8, C16 = double_pair_code(8), double_pair_code(16)
V3, V4 = BitVector(3, 0b101), BitVector(4, 0b0011)


class TestLengthGuard:
    """Every operation on operands of two lengths names them, in order."""

    @pytest.mark.parametrize(
        "call, a, b",
        [
            (lambda: V3 ^ V4, 3, 4),
            (lambda: V4 + V3, 4, 3),
            (lambda: V3 & V4, 3, 4),
            (lambda: C8.contains(BitVector(16, 1)), 16, 8),
            (lambda: C16.intersection(C8), 16, 8),
            (lambda: apply_permutation(C16, CoordinatePermutation.identity(8)), 16, 8),
            (lambda: are_permutation_equivalent(C8, C16), 8, 16),
            (lambda: _meet_dimension(C16, C8), 16, 8),
            (lambda: neighbor_step(C8, BitVector(16, 0b11)), 16, 8),
        ],
        ids=[
            "xor", "add", "and", "contains", "intersection", "apply_permutation",
            "are_permutation_equivalent", "meet_dimension", "neighbor_step",
        ],
    )
    def test_exact_message(self, call, a, b):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"length mismatch: {a} != {b}"


class TestBitMatrix:
    def test_from_strings_and_identity(self):
        m = parse_matrix("110\n011\n")
        assert m.nrows == 2 and m.ncols == 3
        assert unit_rows(3).rows == (
            BitVector.from_string("100"),
            BitVector.from_string("010"),
            BitVector.from_string("001"),
        )

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix([BitVector.from_string("110"), BitVector.from_string("01")])

    def test_empty_needs_ncols(self):
        with pytest.raises(ValueError):
            BitMatrix([])
        m = BitMatrix([], ncols=4)
        assert m.nrows == 0 and m.ncols == 4

    def test_declared_ncols_checked(self):
        with pytest.raises(ValueError, match="^declared ncols 4 != row length 3$"):
            BitMatrix([BitVector(3)], ncols=4)
        with pytest.raises(ValueError, match=r"^ncols must be in \[1, 65536\], got 0$"):
            BitMatrix([], ncols=0)

    @given(bitmatrix())
    def test_rank_matches_oracle(self, m):
        assert LinearCode(m.ncols, m.row_ints()).k == o_rank([to_bits(r) for r in m.rows])

    @given(bitmatrix())
    def test_rref_idempotent_and_canonical(self, m):
        rows, pivots, mask = _rref_ints(m.row_ints(), m.ncols)
        assert len(rows) == len(pivots) and pivots == sorted(pivots) and mask == sum(pivots)
        assert _rref_ints(rows, m.ncols) == (rows, pivots, mask)

    @given(bitmatrix())
    def test_rref_matches_oracle(self, m):
        rows, _, _ = _rref_ints(m.row_ints(), m.ncols)
        expected = o_rref([to_bits(row) for row in m.rows])
        assert [int_bits(r, m.ncols) for r in rows] == expected

    @given(bitmatrix())
    def test_kernel_is_orthogonal_complement(self, m):
        kernel = [int_bits(v, m.ncols) for v in _dual_rows(m.row_ints(), m.ncols)]
        original = [to_bits(r) for r in m.rows]
        assert o_rank(original) + len(kernel) == m.ncols
        assert o_rank(kernel) == len(kernel)
        for v in kernel:
            assert o_orthogonal_all(original, v)

    def test_kernel_of_identity_is_empty(self):
        assert _dual_rows(unit_rows(5).row_ints(), 5) == []

    def test_kernel_of_zero_map_is_everything(self):
        assert _dual_rows([0], 4) == unit_rows(4).row_ints()


def test_randomized_rref_row_space_preserved():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 20)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, 7))]
        original = [int_bits(v, n) for v in rows]
        reduced = [int_bits(v, n) for v in _rref_ints(rows, n)[0]]
        assert o_rank(original) == o_rank(reduced)
        assert o_rank(original + reduced) == o_rank(original)


def int_bits(v, n):
    """An int row (bit i is coordinate i) as the oracles' tuple of coordinates."""
    return tuple((v >> i) & 1 for i in range(n))


def oracle_rref(rows, n):
    """o_rref of int rows, returned as ints."""
    return [sum(b << i for i, b in enumerate(t)) for t in o_rref([int_bits(r, n) for r in rows])]


def near_rref_inputs(rng, n):
    """A reduced row list and copies broken in ways the RREF test must catch."""
    rows = oracle_rref([rng.getrandbits(n) for _ in range(rng.randrange(1, 9))], n)
    yield rows
    yield []
    if len(rows) >= 2:
        i, j = sorted(rng.sample(range(len(rows)), 2))
        # pivots out of order
        yield rows[:i] + [rows[j]] + rows[i + 1 : j] + [rows[i]] + rows[j + 1 :]
        # a row with a bit at a later row's pivot; lowest bits still increase
        yield rows[:i] + [rows[i] ^ rows[j]] + rows[i + 1 :]
        # a row with a bit at an earlier row's pivot
        yield rows[:j] + [rows[j] ^ rows[i]] + rows[j + 1 :]
    if rows:
        at = rng.randrange(len(rows))
        yield rows[:at] + [0] + rows[at:]
        yield rows + [0]
        yield rows[: at + 1] + [rows[at]] + rows[at + 1 :]


def rows_with_dependencies(rng, max_n):
    """(n, rows): random int rows of length n <= max_n, mixed with zero rows
    and with sums of earlier rows."""
    n = rng.randrange(1, max_n + 1)
    rows: list[int] = []
    for _ in range(rng.randrange(min(n, 16) + 3)):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append(0)
        elif kind == 1 and rows:
            rows.append(reduce(xor, rng.sample(rows, rng.randrange(1, len(rows) + 1))))
        else:
            rows.append(rng.getrandbits(n))
    return n, rows


class TestCutBuiltKernel:
    """_dual_rows cuts the unit rows once per input row; the result must be
    the reduced orthogonal complement, whatever rows are dependent or zero."""

    def test_dual_rows_and_kernel_basis_match_the_oracles(self):
        rng = random.Random(31)
        for _ in range(300):
            n, rows = rows_with_dependencies(rng, 40)
            original = [int_bits(r, n) for r in rows]
            out = _dual_rows(rows, n)
            assert _rref_pivots(out, n) is not None
            assert len(out) == n - o_rank(original)
            assert all(o_orthogonal_all(original, int_bits(v, n)) for v in out)


class TestRrefFastPath:
    """_rref_ints returns rows that are already reduced as they are; the
    result must equal the oracle's elimination on every input."""

    def test_matches_full_elimination(self):
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randrange(1, 40)
            for rows in near_rref_inputs(rng, n):
                full = oracle_rref(rows, n)
                pivots = [r & -r for r in full]
                assert _rref_ints(rows, n) == (full, pivots, sum(pivots))
                assert _eliminate(rows) == (full, pivots)
                c = LinearCode(n, rows)
                assert c.rows == tuple(full) and c._pivot_mask == sum(pivots)
                # the test passes exactly when elimination changes nothing
                assert (_rref_pivots(rows, n) is not None) == (full == rows)

    def test_pivot_past_ncols_is_eliminated_away(self):
        # reduced as 8-bit rows, but the second pivot lies past 4 columns
        rows = [0b00000011, 0b00110000]
        assert _rref_pivots(rows, 8) == ([0b00000001, 0b00010000], 0b00010001)
        assert _rref_pivots(rows, 4) is None
        # elimination keeps every bit; the length guard keeps such rows out
        with pytest.raises(ValueError, match="fit"):
            LinearCode(4, rows)

    def test_each_trap_is_caught(self):
        assert _rref_pivots([0b001, 0b010], 3) == ([0b001, 0b010], 0b011)
        assert _rref_pivots([0b010, 0b001], 3) is None
        assert _rref_pivots([0b011, 0b010], 3) is None
        assert _rref_pivots([0b001, 0, 0b010], 3) is None
        assert _rref_pivots([0b001, 0b001], 3) is None
        assert _rref_pivots([], 3) == ([], 0)
        assert _rref_ints([], 3) == ([], [], 0)
