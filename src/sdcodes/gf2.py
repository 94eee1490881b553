"""Word-packed GF(2) vectors and matrices.

Vectors are immutable and store their coordinates in a single Python int
(coordinate i of n lives in bit i, so popcount over the int is the Hamming
weight).  Matrices are immutable tuples of equal-length vectors.  Both are
frozen dataclasses, compared and hashed by value.

This module builds the reduced row echelon forms (RREF) of the library on
the raw ints, all but a neighbor step's: neighborhood._step builds those in
one pass, with their pivots and mask, and its certificate proves them, so
no check here runs on them.  The pivot of an RREF row is its lowest set
bit.  Every other row space is built from one check and two moves, each
O(k) row operations: _rref_pivots accepts rows that are already reduced
(and returns their pivots and the pivot mask, their sum, which a code
keeps), _insert_rref adds one vector to a span, and _kernel_rows cuts a
span down to the kernel of a linear functional.  _insert_rref reads the
pivots of its rows from its caller, which holds them (a code stores them,
elimination keeps them beside its rows), and returns the pivots of the
result with its rows, so no pivot is computed twice.  Elimination is k
inserts; a dual or an orthogonal complement is one cut per check, starting
from the unit rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import lt
from typing import Iterable, Iterator, Sequence

MAX_LENGTH = 1 << 16


@dataclass(frozen=True)
class BitVector:
    """A length-n vector over GF(2), packed into one int.

    Coordinates are 0-indexed here; text renderings read coordinate 0 first
    (leftmost), matching the usual generator-matrix layout.
    """

    length: int
    bits: int = 0

    def __post_init__(self):
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"vector length must be in [1, {MAX_LENGTH}], got {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside the declared length must be zero")

    @classmethod
    def ones(cls, length: int) -> BitVector:
        return cls(length, (1 << length) - 1)

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        """Parse '0'/'1' characters, ignoring spaces; leftmost char is coordinate 0."""
        return cls(*_from01(text))

    def weight(self) -> int:
        """Number of nonzero coordinates."""
        return self.bits.bit_count()

    def to01(self) -> str:
        """The coordinates as '0'/'1' characters, coordinate 0 first."""
        return _to01(self.bits, self.length)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"coordinate {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __xor__(self, other: BitVector) -> BitVector:
        _check_lengths(self.length, other.length)
        return BitVector(self.length, self.bits ^ other.bits)

    # GF(2) addition is XOR; both spellings work.
    __add__ = __xor__

    def __and__(self, other: BitVector) -> BitVector:
        _check_lengths(self.length, other.length)
        return BitVector(self.length, self.bits & other.bits)

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


def _ones(x: int) -> list[int]:
    """The positions of the set bits of x, lowest first."""
    out = []
    while x:
        out.append((x & -x).bit_length() - 1)
        x &= x - 1
    return out


def _to01(bits: int, n: int) -> str:
    """The row text of an n-bit word: coordinate 0 (bit 0) is the first character."""
    return format(bits, f"0{n}b")[::-1]


def _from01(text: str) -> tuple[int, int]:
    """The (width, bits) of a row text, spaces ignored: the inverse of _to01.

    The symbols are checked by str and bytes methods (ASCII, and nothing
    left once bytes.translate deletes the 0s and 1s) and converted by int,
    with no Python step per character; int's limit on digits does not apply
    to base 2, so rows of MAX_LENGTH symbols convert.
    """
    symbols = text.replace(" ", "")
    if not symbols.isascii() or symbols.encode().translate(None, b"01"):
        pos = next(i for i, ch in enumerate(text, 1) if ch not in "01 ")
        raise ValueError(f"position {pos}: invalid symbol {text[pos - 1]!r}")
    return len(symbols), int(symbols[::-1] or "0", 2)


def _check_lengths(a: int, b: int) -> None:
    """The one length guard: operands of lengths a and b must agree."""
    if a != b:
        raise ValueError(f"length mismatch: {a} != {b}")


@dataclass(frozen=True)
class BitMatrix:
    """An ordered list of equal-length BitVectors.

    rows may be any iterable; it is stored as a tuple, and ncols, required
    only when there are no rows, as the rows' length.
    """

    rows: tuple[BitVector, ...]
    ncols: int | None = None

    def __post_init__(self):
        rows, ncols = tuple(self.rows), self.ncols
        if rows:
            width = rows[0].length
            if ncols is not None and ncols != width:
                raise ValueError(f"declared ncols {ncols} != row length {width}")
            ncols = width
            for i, r in enumerate(rows):
                if r.length != width:
                    raise ValueError(f"row {i} has length {r.length}, expected {width}")
        elif ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        if not 1 <= ncols <= MAX_LENGTH:
            raise ValueError(f"ncols must be in [1, {MAX_LENGTH}], got {ncols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[BitVector]:
        return iter(self.rows)

    def __getitem__(self, i: int) -> BitVector:
        return self.rows[i]

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


def _rref_pivots(rows: list[int], ncols: int) -> tuple[list[int], int] | None:
    """The pivots of rows and their sum, the pivot mask, when the rows are
    already the RREF of their span, as _eliminate builds it, else None.

    That is: every row is nonzero, its pivot (lowest set bit) lies below
    ncols, the pivots strictly increase, and no row has a bit at another
    row's pivot.  The test costs O(k) row operations.
    """
    pivots = [r & -r for r in rows]
    mask = sum(pivots)
    ordered = all(map(lt, [0, *pivots], pivots)) and not mask >> ncols
    return (pivots, mask) if ordered and [r & mask for r in rows] == pivots else None


def _rref_ints(rows: list[int], ncols: int) -> tuple[list[int], list[int], int]:
    """The RREF rows of span(rows), zero rows dropped, their pivots and the
    pivot mask; rows fit in ncols bits.

    The reduced form of a row space is unique, so rows that pass
    _rref_pivots come back as they are, without elimination, with the mask
    that the check summed; elimination keeps the pivots beside the rows it
    builds.
    """
    checked = _rref_pivots(rows, ncols)
    if checked is not None:
        return list(rows), *checked
    rows, pivots = _eliminate(rows)
    return rows, pivots, sum(pivots)


def _eliminate(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination: the rows inserted one at a time; returns the
    RREF rows and their pivots."""
    out: list[int] = []
    pivots: list[int] = []
    for x in rows:
        out, pivots = _insert_rref(out, pivots, x)
    return out, pivots


def _reduced(rows: Sequence[int], bits: int, pivots: Sequence[int]) -> int:
    """bits reduced against RREF rows with the given pivots: zero at every
    pivot, same coset of their span."""
    for row, p in zip(rows, pivots):
        if bits & p:
            bits ^= row
    return bits


def _insert_rref(
    rows: Sequence[int], pivots: Sequence[int], x: int
) -> tuple[list[int], list[int]]:
    """RREF rows of span(rows) + x and their pivots, from RREF rows and their
    pivots, in O(k) row operations.

    x is reduced at the given pivots; if anything is left, its lowest bit q
    becomes a new pivot, x is added to the rows with a bit at q (their
    pivots lie below q, so they keep them) and x and q go in by pivot order.
    The pivots are read, not computed again.
    """
    x = _reduced(rows, x, pivots)
    if not x:
        return list(rows), list(pivots)
    q = x & -x
    i = bisect_left(pivots, q)
    out = [r ^ x if r & q else r for r in rows]
    out.insert(i, x)
    return out, [*pivots[:i], q, *pivots[i:]]


def _kernel_rows(rows: Sequence[int], t: Sequence[int]) -> list[int]:
    """Rows spanning the subcode of span(rows) on which the linear functional
    with value t[i] at rows[i] vanishes; all of rows when t is zero.

    Adding one row of value 1 to every other row of value 1 zeroes the
    functional on them, and dropping that row leaves a basis of the kernel.
    The row dropped is the last one of value 1: on RREF rows its pivot is
    above the pivot of every row it is added to, and it is zero at theirs,
    so each keeps its pivot as its lowest bit and the result is again RREF,
    with that row's pivot now a free column.
    """
    if 1 not in t:
        return list(rows)
    j = _dropped(t)
    return [r ^ rows[j] if t[i] else r for i, r in enumerate(rows) if i != j]


def _dropped(t: Sequence[int]) -> int:
    """The index of the row that _kernel_rows drops for the values t, which
    include a 1: the last row of value 1."""
    return len(t) - 1 - t[::-1].index(1)


def _orthogonal_rows(rows: Sequence[int], checks: Iterable[int]) -> list[int]:
    """RREF rows of the subspace of span(rows) orthogonal to every check,
    from RREF rows: one cut by the functional v -> v . h per check h."""
    rows = list(rows)
    for h in checks:
        rows = _kernel_rows(rows, [(r & h).bit_count() & 1 for r in rows])
    return rows


def _dual_rows(rows: Iterable[int], n: int) -> list[int]:
    """RREF rows of {x : x . r = 0 for every r in rows}, cut from the n unit rows."""
    return _orthogonal_rows([1 << i for i in range(n)], rows)
