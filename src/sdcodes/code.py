"""Binary linear codes: duality, membership, distance, classification.

A LinearCode is stored as its length and its canonical generator rows as
ints (RREF, zero rows dropped), so code equality is literal row equality.
Every RREF comes from the row-space moves of gf2: rows that are already in
that form are kept without elimination, which lets a neighbor step build its
code with O(k) row operations, and the dual and intersections are cut from
unit rows and from the code's own rows, already reduced.
Self-orthogonality is decided by one pass over all pairs of rows, once per
code, and stored with it; a code built by a neighbor step instead stores the
result of an O(k) certificate that derives it from the stored result of the
code it came from.
Weight enumeration and codeword listing stream all 2^k codewords with one
Gray-code sweep.  The lightest words of a span, for minimum distance, for
the coset representatives of a neighborhood and for the light words that
the equivalence search maps (_words_by_weight), come from one
Brouwer-Zimmermann search instead (_bz_rounds): rounds of sums of few rows
of generators systematic on disjoint information sets, each with a bound on
the weight of every word not yet seen.  A hard dimension cap keeps both
bounded and makes oversize requests an explicit error instead of a silent
approximation.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, combinations, compress, islice
from math import comb
from operator import xor
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gf2 import (
    MAX_LENGTH,
    BitMatrix,
    BitVector,
    _dual_rows,
    _orthogonal_rows,
    _reduced,
    _rref_ints,
)

DEFAULT_ENUMERATION_CAP = 30


class EnumerationCapError(ValueError):
    """Raised when a codeword sweep or a Brouwer-Zimmermann search would exceed the dimension cap."""


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
        # zero counts are ignored, as by __eq__
        return hash(tuple(sorted((w, c) for w, c in self.counts.items() if c)))


class LinearCode:
    """A binary (n, k) linear code in canonical form.

    rows holds the RREF generator as ints (bit i is coordinate i), zero rows
    dropped, so two codes are equal exactly when their rows are equal.
    """

    __slots__ = ("n", "k", "rows", "_self_orthogonal")

    n: int
    k: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int]):
        rows = list(rows)
        if not 1 <= n <= MAX_LENGTH:
            raise ValueError(f"code length must be in [1, {MAX_LENGTH}], got {n}")
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"generator rows must fit in {n} bits")
        reduced = _rref_ints(rows, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", len(reduced))
        object.__setattr__(self, "rows", tuple(reduced))
        # the result of is_self_orthogonal, once it has run
        object.__setattr__(self, "_self_orthogonal", None)

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
        return LinearCode(self.n, _dual_rows(self.rows, self.n))

    def is_self_orthogonal(self) -> bool:
        """Whether every two codewords are orthogonal.

        Decided by one full pass over all pairs of rows.  The code is
        immutable, so the pass runs once per code; later calls return the
        stored result.  A code built by neighborhood.neighbor_step or
        double_pair_code has it stored already, proved in O(k) row
        operations, and runs no pass.
        """
        if self._self_orthogonal is None:
            object.__setattr__(self, "_self_orthogonal", _pairwise_orthogonal(self.rows))
        return self._self_orthogonal

    def is_self_dual(self) -> bool:
        return 2 * self.k == self.n and self.is_self_orthogonal()

    def contains(self, v: BitVector) -> bool:
        """Row-space membership, decided by reducing v against the RREF generator."""
        if v.length != self.n:
            raise ValueError(f"length mismatch: {v.length} != {self.n}")
        return self._reduce(v.bits) == 0

    def _reduce(self, bits: int) -> int:
        """bits reduced against the RREF rows: zero at every pivot, same coset."""
        return _reduced(self.rows, bits)

    def intersection(self, other: LinearCode) -> LinearCode:
        """The code of vectors lying in both codes: the words of self orthogonal
        to every row of dual(other), cut from the rows of self one check at a
        time, already reduced."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return LinearCode(self.n, _orthogonal_rows(self.rows, other.dual().rows))

    # -- exhaustive sweeps --------------------------------------------------

    def _check_cap(self) -> None:
        if self.k > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"instance too large: dimension {self.k} exceeds enumeration cap "
                f"{DEFAULT_ENUMERATION_CAP}"
            )

    def codewords(self) -> list[int]:
        """All 2^k codewords as raw ints, in Gray-code order (starts at 0)."""
        self._check_cap()
        return list(_gray_words(self.rows))

    def minimum_distance(self) -> int:
        """Smallest nonzero codeword weight, from the rounds of _bz_rounds."""
        if self.k == 0:
            raise ValueError("the zero-dimensional code has no minimum distance")
        best = self.n
        for sums, bound in _bz_rounds(self):
            best = min(best, min(map(int.bit_count, sums)))
            if best <= bound:
                break
        return best

    def weight_enumerator(self) -> WeightEnumerator:
        """Full weight distribution via the same Gray-code sweep."""
        self._check_cap()
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


def _pairwise_orthogonal(rows: Sequence[int]) -> bool:
    """Whether every two rows, a row with itself included, have even overlap."""
    return all(
        (a & b).bit_count() & 1 == 0 for i, a in enumerate(rows) for b in rows[i:]
    )


_BLOCK_BITS = 16
# row sums that _level_sums keeps per generator, bounding its memory
_LEVEL_WORDS = 1 << _BLOCK_BITS


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


def _gray_index(rows: Sequence[int], word: int) -> int:
    """The index of word in _gray_words(rows), rows in RREF: bit b is the XOR
    of word's bits at the pivots of rows[b:], the inverse Gray map of its
    coefficients."""
    j = 0
    for b, r in enumerate(rows):
        if word & r & -r:
            j ^= (2 << b) - 1
    return j


def _information_set_generators(rows: Sequence[int]) -> list[list[int]]:
    """Generators of the span of the RREF rows, each systematic on its own
    information set; the first is rows itself, on their pivots.

    The sets are pairwise disjoint and found greedily: each elimination
    takes its pivots only among columns no earlier set used, and the search
    ends at the first elimination that falls short of full rank.
    """
    gens = [list(rows)]
    # the pivots of the RREF rows, as gf2 defines them
    used = sum(r & -r for r in rows)
    while True:
        basis: list[int] = []
        pivots: list[int] = []
        for r in rows:
            for p, b in zip(pivots, basis):
                if r & p:
                    r ^= b
            # r is now zero on every pivot taken so far
            free = r & ~used
            if not free:
                return gens
            p = free & -free
            basis = [b ^ r if b & p else b for b in basis]
            basis.append(r)
            pivots.append(p)
        gens.append(basis)
        used |= sum(pivots)


def _bz_rounds(code: LinearCode, lift: Callable[[int], int] | None = None) -> Iterator[tuple[Iterable[int], int]]:
    """The Brouwer-Zimmermann search of code: (sums, bound) per generator per
    round, sums read before the next is drawn; lift, a linear map, is applied
    to every generator row first, so the sums are the lifts of the plain ones.

    Each of m generators is systematic on its own information set, and the
    sets are pairwise disjoint, so a codeword is the sum of the rows of
    generator j picked by its ones on set j.  Round w sums every w rows of
    each generator in turn, so after generator i a codeword missed so far has
    at least w + 1 ones on each of sets 1..i and w on the rest.  bound is that
    weight, m*w + i, rounded up to the weight divisor of the code (1, 2 or 4).
    Round k sees every codeword.  A self-dual code has m >= 2: the complement
    of an information set of C is one of its dual, C itself.
    """
    code._check_cap()
    if any(r.bit_count() & 1 for r in code.rows):
        step = 1
    elif all(r.bit_count() % 4 == 0 for r in code.rows) and code.is_self_orthogonal():
        step = 4
    else:
        step = 2
    gens = _information_set_generators(code.rows)
    levels = [_level_sums(g if lift is None else list(map(lift, g))) for g in gens]
    m = len(levels)
    for w in range(1, code.k + 1):
        for i, level in enumerate(levels, 1):
            yield next(level), -(-(m * w + i) // step) * step


def _words_by_weight(code: LinearCode) -> Iterator[tuple[int, set[int]]]:
    """(w, the set of nonzero codewords of weight w) for w = 1, 2, ..., n < 256.

    Weight w is yielded once a round of _bz_rounds bounds every word not yet
    drawn above it.  The sums are weighed into bytes and cut by weight with
    bytes.translate, into sets, since one word can come from several
    generators.  The last round has drawn every word: its bound is n + 1.
    """
    drawn, weights, w = [], bytearray(), 1
    for sums, bound in chain(_bz_rounds(code), [((), code.n + 1)]):
        drawn += sums
        weights += bytes(map(int.bit_count, drawn[len(weights) :]))
        while w < bound and w <= code.n:
            yield w, set(compress(drawn, weights.translate(bytes(w) + b"\1" + bytes(255 - w))))
            w += 1


def _level_sums(rows: Sequence[int]) -> Iterator[Iterator[int]]:
    """For w = 1, 2, ..., len(rows), a stream of the sums of w distinct rows.

    The sums of s rows are kept as a base list ordered by highest row index,
    so below[j] of them use only rows before j, and those of s + 1 rows come
    from it by one XOR map per row.  Once a level would pass _LEVEL_WORDS
    sums, the base stops growing: a sum of w rows is then a base sum XOR a
    sum of w - s rows t that all lie above the base sum's rows, so memory
    stays at one base list while w grows.  Read each level before the next.
    """
    k = len(rows)
    base, below, s = [0], [1] * k, 0
    for w in range(1, k + 1):
        if s == w - 1 and comb(k, w) <= _LEVEL_WORDS:
            runs = [list(map(r.__xor__, islice(base, b))) for r, b in zip(rows, below)]
            base = list(chain.from_iterable(runs))
            below = list(accumulate(map(len, runs), initial=0))[:k]
            s = w
            sums = [base]
        else:
            sums = (
                map(reduce(xor, map(rows.__getitem__, t)).__xor__, islice(base, below[t[0]]))
                for t in combinations(range(k), w - s)
            )
        yield chain.from_iterable(sums)


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
