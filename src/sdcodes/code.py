"""Binary linear codes: duality, membership, distance, classification.

A LinearCode is stored as its length and its canonical generator rows as
ints (RREF, zero rows dropped), so code equality is literal row equality.
Minimum distance and weight enumeration stream all 2^k codewords with one
Gray-code sweep; a hard dimension cap keeps that exhaustive walk bounded and
makes oversize requests an explicit error instead of a silent approximation.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import xor
from typing import Iterable, Iterator, Mapping, Sequence

from .gf2 import MAX_LENGTH, BitMatrix, BitVector, _kernel_ints, _rref_ints

DEFAULT_ENUMERATION_CAP = 30


class EnumerationCapError(ValueError):
    """Raised when an exhaustive codeword sweep would exceed the dimension cap."""


class InternalConsistencyError(AssertionError):
    """A structural guarantee failed; the inputs or the library are wrong."""


class CodeType(enum.Enum):
    """Self-duality / weight-divisibility classification."""

    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    SELF_ORTHOGONAL_ONLY = "SelfOrthogonalOnly"
    NOT_SELF_ORTHOGONAL = "NotSelfOrthogonal"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class WeightEnumerator:
    """Weight distribution: maps weight w to the number of codewords of weight w.

    Only weights with nonzero counts are stored; lookups elsewhere return 0.
    Compares equal to plain dicts with the same nonzero entries.
    """

    counts: Mapping[int, int]

    def __getitem__(self, w: int) -> int:
        return self.counts.get(w, 0)

    def items(self):
        return sorted(self.counts.items())

    def total(self) -> int:
        return sum(self.counts.values())

    def min_positive_weight(self) -> int:
        return min(w for w in self.counts if w > 0)

    def as_dict(self) -> dict[int, int]:
        return dict(sorted(self.counts.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeightEnumerator):
            other = other.counts
        if isinstance(other, Mapping):
            return {w: c for w, c in self.counts.items() if c} == {
                w: c for w, c in other.items() if c
            }
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.counts.items())))


class LinearCode:
    """A binary (n, k) linear code in canonical form.

    rows holds the RREF generator as ints (bit i is coordinate i), zero rows
    dropped, so two codes are equal exactly when their rows are equal.
    """

    __slots__ = ("n", "k", "rows")

    n: int
    k: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int]):
        rows = list(rows)
        if not 1 <= n <= MAX_LENGTH:
            raise ValueError(f"code length must be in [1, {MAX_LENGTH}], got {n}")
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"generator rows must fit in {n} bits")
        reduced, _ = _rref_ints(rows, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", len(reduced))
        object.__setattr__(self, "rows", tuple(reduced))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("LinearCode is immutable")

    @property
    def generator(self) -> BitMatrix:
        """The canonical generator matrix, built on each access."""
        return BitMatrix([BitVector(self.n, r) for r in self.rows], ncols=self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    # -- structure ---------------------------------------------------------

    def dual(self) -> LinearCode:
        """The (n, n-k) code of all vectors orthogonal to every codeword."""
        return LinearCode(self.n, _kernel_ints(self.rows, self.n))

    def is_self_orthogonal(self) -> bool:
        rows = self.rows
        return all(
            (a & b).bit_count() & 1 == 0 for i, a in enumerate(rows) for b in rows[i:]
        )

    def is_self_dual(self) -> bool:
        return 2 * self.k == self.n and self.is_self_orthogonal()

    def contains(self, v: BitVector) -> bool:
        """Row-space membership, decided by reducing v against the RREF generator."""
        if v.length != self.n:
            raise ValueError(f"length mismatch: {v.length} != {self.n}")
        return self._reduce(v.bits) == 0

    def _reduce(self, bits: int) -> int:
        """bits reduced against the RREF rows: zero at every pivot, same coset."""
        for row in self.rows:
            # the pivot of an RREF row is its lowest set bit
            if bits & (row & -row):
                bits ^= row
        return bits

    def intersection(self, other: LinearCode) -> LinearCode:
        """The code of vectors lying in both codes (kernel of stacked parity checks)."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        checks = self.dual().rows + other.dual().rows
        return LinearCode(self.n, _kernel_ints(checks, self.n))

    # -- exhaustive sweeps --------------------------------------------------

    def _check_cap(self, cap: int) -> None:
        if self.k > cap:
            raise EnumerationCapError(
                f"instance too large: dimension {self.k} exceeds enumeration cap {cap}"
            )

    def codewords(self, *, cap: int = DEFAULT_ENUMERATION_CAP) -> list[int]:
        """All 2^k codewords as raw ints, in Gray-code order (starts at 0)."""
        self._check_cap(cap)
        return list(_gray_words(self.rows))

    def minimum_distance(self, *, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
        """Smallest nonzero codeword weight, by exhaustive Gray-code sweep."""
        if self.k == 0:
            raise ValueError("the zero-dimensional code has no minimum distance")
        self._check_cap(cap)
        # every word after the first (zero) one is nonzero
        return min(map(int.bit_count, islice(_gray_words(self.rows), 1, None)))

    def weight_enumerator(self, *, cap: int = DEFAULT_ENUMERATION_CAP) -> WeightEnumerator:
        """Full weight distribution via the same Gray-code sweep."""
        self._check_cap(cap)
        counts = Counter(map(int.bit_count, _gray_words(self.rows)))
        return WeightEnumerator(dict(sorted(counts.items())))

    def classify(self) -> CodeType:
        """Type of the code, decided from generator rows only (no enumeration).

        A self-orthogonal code is doubly-even iff every generator row has
        weight divisible by 4: pairwise overlaps are even, so weights add
        mod 4 under the sum formula w(a+b) = w(a)+w(b)-2*mu(a,b).
        """
        if not self.is_self_orthogonal():
            return CodeType.NOT_SELF_ORTHOGONAL
        doubly_even = all(r.bit_count() % 4 == 0 for r in self.rows)
        if 2 * self.k != self.n:
            return CodeType.SELF_ORTHOGONAL_ONLY
        return CodeType.TYPE_II if doubly_even else CodeType.TYPE_I


_BLOCK_BITS = 16


def _gray_blocks(rows: Sequence[int]) -> Iterator[Iterator[int]]:
    """The span of rows in Gray-code order, as runs of at most 2^_BLOCK_BITS words.

    Word i is the XOR of rows[b] over the set bits b of i ^ (i >> 1), so
    consecutive words differ by one row and the first word is 0.  Each run
    replays one fixed ruler of step rows through itertools.accumulate at C
    speed; only the run's starting word changes, so memory does not grow
    with the number of words.
    """
    k = len(rows)
    low = min(k, _BLOCK_BITS)
    # steps[j - 1] is the row in which word j differs from word j - 1, the
    # one indexed by the lowest set bit of j; each ruler doubles the last
    steps: list[int] = []
    for b in range(low):
        steps += [rows[b]] + steps
    start = 0
    for b in range(1 << (k - low)):
        if b:
            # the previous run ended at its start ^ rows[low - 1]: a full
            # ruler steps through every lower row an even number of times
            start ^= rows[low - 1] ^ rows[low + (b & -b).bit_length() - 1]
        yield accumulate(steps, xor, initial=start)


def _gray_words(rows: Sequence[int]) -> Iterator[int]:
    """All words of the span of rows, in Gray-code order, starting at 0."""
    return chain.from_iterable(_gray_blocks(rows))


def from_generator(m: BitMatrix) -> LinearCode:
    """Code spanned by the rows of m; dependent rows are reduced away."""
    return LinearCode(m.ncols, m.row_ints())


def extremal_bound(n: int, code_type: CodeType) -> int:
    """Upper bound on the minimum distance of a self-dual code of length n."""
    if n < 1:
        raise ValueError("length must be positive")
    if code_type is CodeType.TYPE_I:
        return 2 * (n // 8) + 2
    if code_type is CodeType.TYPE_II:
        if n % 8:
            raise ValueError(f"doubly-even self-dual codes require 8 | n, got n={n}")
        return 4 * (n // 24) + 4
    raise ValueError(f"extremal bound is defined for TypeI/TypeII only, got {code_type}")
