"""Word-packed GF(2) vectors and matrices.

Vectors are immutable and store their coordinates in a single Python int
(coordinate i of n lives in bit i, so popcount over the int is the Hamming
weight).  Matrices are immutable tuples of equal-length vectors.  Row
reduction, rank and kernel computations all work on the raw ints.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_LENGTH = 1 << 16


class BitVector:
    """A length-n vector over GF(2), packed into one int.

    Coordinates are 0-indexed here; text renderings read coordinate 0 first
    (leftmost), matching the usual generator-matrix layout.
    """

    __slots__ = ("length", "bits")

    length: int
    bits: int

    def __init__(self, length: int, bits: int = 0):
        if not 1 <= length <= MAX_LENGTH:
            raise ValueError(f"vector length must be in [1, {MAX_LENGTH}], got {length}")
        if bits < 0 or bits >> length:
            raise ValueError("bits outside the declared length must be zero")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("BitVector is immutable")

    @classmethod
    def zeros(cls, length: int) -> BitVector:
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> BitVector:
        return cls(length, (1 << length) - 1)

    @classmethod
    def from_string(cls, text: str) -> BitVector:
        """Parse '0'/'1' characters, ignoring spaces; leftmost char is coordinate 0."""
        symbols = text.replace(" ", "")
        bits = 0
        for i, ch in enumerate(symbols):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid symbol {ch!r} in bit string")
        return cls(len(symbols), bits)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> BitVector:
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise ValueError(f"support index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    def weight(self) -> int:
        """Number of nonzero coordinates."""
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"coordinate {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __xor__(self, other: BitVector) -> BitVector:
        _check_lengths(self, other)
        return BitVector(self.length, self.bits ^ other.bits)

    # GF(2) addition is XOR; both spellings work.
    __add__ = __xor__

    def __and__(self, other: BitVector) -> BitVector:
        _check_lengths(self, other)
        return BitVector(self.length, self.bits & other.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.length == other.length and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.length, self.bits))

    def __repr__(self) -> str:
        return f"BitVector({self.to01()!r})"


def _check_lengths(a: BitVector, b: BitVector) -> None:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} != {b.length}")


def weight(v: BitVector) -> int:
    """Hamming weight of v."""
    return v.bits.bit_count()


def mu(a: BitVector, b: BitVector) -> int:
    """Number of coordinates where both a and b are 1."""
    _check_lengths(a, b)
    return (a.bits & b.bits).bit_count()


def dot(a: BitVector, b: BitVector) -> int:
    """Mod-2 scalar product."""
    return mu(a, b) & 1


class BitMatrix:
    """An ordered list of equal-length BitVectors."""

    __slots__ = ("ncols", "rows")

    ncols: int
    rows: tuple[BitVector, ...]

    def __init__(self, rows: Iterable[BitVector], ncols: int | None = None):
        rows = tuple(rows)
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
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def from_strings(cls, lines: Iterable[str], ncols: int | None = None) -> BitMatrix:
        return cls([BitVector.from_string(s) for s in lines], ncols=ncols)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls([BitVector(n, 1 << i) for i in range(n)])

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


def _rref_ints(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination on raw ints; returns (nonzero rows, pivot columns)."""
    work = list(rows)
    pivots: list[int] = []
    r = 0
    nrows = len(work)
    for col in range(ncols):
        mask = 1 << col
        piv = -1
        for i in range(r, nrows):
            if work[i] & mask:
                piv = i
                break
        if piv < 0:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(nrows):
            if i != r and work[i] & mask:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def rref(m: BitMatrix) -> tuple[BitMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form over GF(2), zero rows dropped.

    Returns (rref matrix, rank, pivot columns).  The result is the unique
    canonical representative of the row space of m.
    """
    reduced, pivots = _rref_ints(m.row_ints(), m.ncols)
    mat = BitMatrix([BitVector(m.ncols, bits) for bits in reduced], ncols=m.ncols)
    return mat, len(reduced), tuple(pivots)


def rank(m: BitMatrix) -> int:
    return len(_rref_ints(m.row_ints(), m.ncols)[0])


def _kernel_ints(rows: list[int], ncols: int) -> list[int]:
    reduced, pivots = _rref_ints(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        for t, p in enumerate(pivots):
            if (reduced[t] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    # canonicalize so the result is itself in RREF
    basis, _ = _rref_ints(basis, ncols)
    return basis

def kernel_basis(m: BitMatrix) -> BitMatrix:
    """RREF basis of {x : m . x^T = 0}; has ncols - rank(m) rows."""
    basis = _kernel_ints(m.row_ints(), m.ncols)
    return BitMatrix([BitVector(m.ncols, bits) for bits in basis], ncols=m.ncols)
