"""Binary linear codes: duality, membership, distance, classification.

A LinearCode is stored as its length and its canonical generator rows as
ints (RREF, zero rows dropped), so code equality is literal row equality,
and the pivot of each row (its lowest set bit), found once per code and
read by every reduction against its rows and the information-set search.
Every RREF but a neighbor step's comes from the row-space moves of gf2:
rows that are already in that form are kept without elimination, and the
dual and intersections are cut from unit rows and from the code's own rows,
already reduced.  A neighbor step builds its rows in one pass with their
pivots and mask, its certificate proves them an RREF, and its code keeps
them as they are (LinearCode._proved_step), with no second check.
Self-orthogonality is decided by one pass over all pairs of rows, once per
code, and stored with it; a neighbor step stores instead the result of an
O(k) certificate that derives it from that of the code it came from.
Weight enumeration streams all 2^k codewords as one table of the sums of
the low rows, XORed with each sum of the high rows (_span_words).
The lightest words of a span, for minimum distance with a word of that
weight (_distance_query) and for the light words that the equivalence search
maps (_words_by_weight), and the coset representatives of a neighborhood
(_shadow_leaders, one search of its Type I member and of that member's
shadow) come from one Brouwer-Zimmermann driver instead (_bz_streams):
rounds of sums of few rows of generators systematic on disjoint information
sets (one greedy elimination: a self-dual code's pivots and the rest), from
0 for a code or from one start word per generator for a coset, each with a
bound on the weight of every word not yet drawn.  The sums are weighed only
here, in the lists that _level_sums built them in.  One cap bounds both: a
sweep or search that would draw over 2^DEFAULT_ENUMERATION_CAP words (2^k
per sweep, C(k, w) per generator per round and stream), or over the budget
its caller gives the driver, is an explicit error, not a silent
approximation.
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import reduce
from itertools import chain, combinations, compress, islice, product, repeat
from math import comb
from operator import xor
from typing import Iterable, Iterator, Sequence

from .gf2 import (
    MAX_LENGTH,
    BitMatrix,
    BitVector,
    _check_lengths,
    _dual_rows,
    _orthogonal_rows,
    _reduced,
    _rref_ints,
    _to01,
)

DEFAULT_ENUMERATION_CAP = 30


class EnumerationCapError(ValueError):
    """Raised before a sweep or search would draw over 2^DEFAULT_ENUMERATION_CAP words or its budget."""


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


class LinearCode:
    """A binary (n, k) linear code in canonical form.

    rows holds the RREF generator as ints (bit i is coordinate i), zero rows
    dropped, so two codes are equal exactly when their rows are equal.
    pivots holds the pivot of each row, its lowest set bit as a one-bit int:
    kept from the constructor's RREF check, or computed once from the rows
    that elimination built, or, for the code of a neighbor step, those its
    certificate proved.  _pivot_mask, their sum, is kept beside them.
    """

    __slots__ = ("n", "k", "rows", "pivots", "_pivot_mask", "_self_orthogonal")

    n: int
    k: int
    rows: tuple[int, ...]
    pivots: tuple[int, ...]

    def __init__(self, n: int, rows: Iterable[int]):
        rows = list(rows)
        if not 1 <= n <= MAX_LENGTH:
            raise ValueError(f"code length must be in [1, {MAX_LENGTH}], got {n}")
        if rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"generator rows must fit in {n} bits")
        rows, pivots, mask = _rref_ints(rows, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", len(rows))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_pivot_mask", mask)
        # the result of is_self_orthogonal, once it has run
        object.__setattr__(self, "_self_orthogonal", None)

    @classmethod
    def _proved_step(cls, n: int, rows: tuple[int, ...], pivots: tuple[int, ...], mask: int) -> LinearCode:
        """The self-dual code of a neighbor step whose certificate
        (neighborhood._step_certified) has proved rows to be an RREF with
        these pivots and this mask, stored as they are: no RREF check and no
        pairwise pass runs again.  No other caller builds a code this way."""
        code = object.__new__(cls)
        for name, value in zip(cls.__slots__, (n, len(rows), rows, pivots, mask, True)):
            object.__setattr__(code, name, value)
        return code

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError("LinearCode is immutable")

    __delattr__ = __setattr__

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
        operations, and runs no pass; so has the maximal doubly-even
        subcode of a Type I code, whose rows are sums of rows of that code.
        """
        if self._self_orthogonal is None:
            object.__setattr__(self, "_self_orthogonal", _pairwise_orthogonal(self.rows))
        return self._self_orthogonal

    def is_self_dual(self) -> bool:
        return 2 * self.k == self.n and self.is_self_orthogonal()

    def contains(self, v: BitVector) -> bool:
        """Row-space membership, decided by reducing v against the RREF generator."""
        _check_lengths(v.length, self.n)
        return self._reduce(v.bits) == 0

    def _reduce(self, bits: int) -> int:
        """bits reduced against the RREF rows: zero at every pivot, same coset."""
        return _reduced(self.rows, bits, self.pivots)

    def intersection(self, other: LinearCode) -> LinearCode:
        """The code of vectors lying in both codes: the words of self orthogonal
        to every row of dual(other), cut from the rows of self one check at a
        time, already reduced."""
        _check_lengths(self.n, other.n)
        return LinearCode(self.n, _orthogonal_rows(self.rows, other.dual().rows))

    # -- exhaustive sweeps --------------------------------------------------

    def minimum_distance(self, stop_at: int = 0) -> int:
        """Smallest nonzero codeword weight d, from _bz_streams over the code alone
        (_distance_query): exact past stop_at, else the weight w of a word seen, d <= w <= stop_at."""
        return _distance_query(self, stop_at)[0]

    def weight_enumerator(self) -> Counter[int]:
        """Full weight distribution from one sweep of the 2^k codewords
        (_span_words): nonzero counts of each weight, in weight order."""
        if self.k > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"instance too large: dimension {self.k} exceeds enumeration cap "
                f"{DEFAULT_ENUMERATION_CAP}"
            )
        counts = Counter(map(int.bit_count, _span_words(self.rows)))
        return Counter(dict(sorted(counts.items())))

    def classify(self) -> CodeType:
        """Type of the code, decided from generator rows only (no enumeration).

        A self-orthogonal code is doubly-even iff every generator row has
        weight divisible by 4: pairwise overlaps are even, so weights add
        mod 4 under the sum formula w(a+b) = w(a)+w(b)-2*mu(a,b).
        """
        if not self.is_self_orthogonal():
            return CodeType.NOT_SELF_ORTHOGONAL
        if 2 * self.k != self.n:
            return CodeType.SELF_ORTHOGONAL_ONLY
        return CodeType.TYPE_II if all(r.bit_count() % 4 == 0 for r in self.rows) else CodeType.TYPE_I


def _pairwise_orthogonal(rows: Sequence[int]) -> bool:
    """Whether every two rows, a row with itself included, have even overlap."""
    return all(
        (a & b).bit_count() & 1 == 0 for i, a in enumerate(rows) for b in rows[i:]
    )


_BLOCK_BITS = 16
# row sums that _level_sums keeps per generator, bounding its memory
_LEVEL_WORDS = 1 << _BLOCK_BITS


def _span_words(rows: Sequence[int]) -> Iterator[int]:
    """All 2^len(rows) words of the span of rows, 0 first: the table of the
    sums of the first _BLOCK_BITS rows, built by doubling as are the sums of
    the rest, XORed with each of those in turn, at C speed."""
    low, high = [0], [0]
    for i, r in enumerate(rows):
        half = low if i < _BLOCK_BITS else high
        half += [w ^ r for w in half]
    return chain.from_iterable(map(xor, repeat(s), low) for s in high)


def _information_set_generators(code: LinearCode) -> list[tuple[list[int], list[int]]]:
    """Generators of code, each systematic on its own information set, with
    the pivot of each row in that set; the first is its rows, on their
    pivots.

    The sets are pairwise disjoint, and found greedily: each elimination
    takes its pivots only among columns no earlier set used, and the search
    ends at the first elimination that falls short of full rank; a code of
    dimension 0 has the one empty generator.  A self-dual code gets exactly
    two, on its pivots P and on the rest N, an information set of its dual.
    """
    rows = code.rows
    gens = [(list(rows), list(code.pivots))]
    used = code._pivot_mask
    while rows:
        basis: list[int] = []
        pivots: list[int] = []
        for r in rows:
            r = _reduced(basis, r, pivots)
            free = r & ~used
            if not free:
                return gens
            p = free & -free
            basis = [b ^ r if b & p else b for b in basis]
            basis.append(r)
            pivots.append(p)
        gens.append((basis, pivots))
        used |= sum(pivots)
    return gens


def _bz_streams(
    gens: list[list[int]], starts: list[list[int]], live: list[bool], budget: int | None = None
) -> Iterator[tuple[int, int, list]]:
    """The Brouwer-Zimmermann search of streams over gens, the m generators
    of _information_set_generators, lifted alike: (w, i, sums) per round
    w = 0..k and generator i, sums holding each stream's lists of the sums
    drawn there, () for a stream stopped in live.

    Generator j is systematic on its information set I_j, the sets pairwise
    disjoint.  A stream starts from one word s_j per generator, zero on I_j:
    0 for the code, or x plus the rows at its ones on I_j for a coset x + C.
    A word y of the stream is s_j plus the rows at its ones on I_j (y + s_j
    is the codeword with those ones), so round w of generator j draws the
    words with w ones on I_j: the sums of s_j and w rows, s_j alone at w = 0
    unless it is 0.  After round w of generator i, the later ones at w - 1,
    a word not drawn has at least w + 1 ones on each of I_0..I_i and w on
    the others: it weighs at least m*w + i + 1.  Round k draws every word.
    A self-dual code has m = 2: the complement of an information set of C
    is one of its dual, C itself.

    The caller stops a stream by clearing its flag in live, read before each
    (w, i); the search ends when none is set.  The cap counts the sums of the
    live streams, each round in full as it starts: one that would bring them
    past the caller's budget, or past 2^DEFAULT_ENUMERATION_CAP without one,
    raises before any is drawn.
    """
    m, k = len(gens), len(gens[0])
    levels = [[chain([[[s]] if s else ()], _level_sums(g, s)) for g, s in zip(gens, ss)] for ss in starts]
    total = 0
    for w, i in product(range(k + 1), range(m)):
        if not any(live):
            return
        if not i:
            total += sum(comb(k, w) for ss, on in zip(starts, live) if on for s in ss if w or s)
            if total > (1 << DEFAULT_ENUMERATION_CAP if budget is None else budget):
                raise EnumerationCapError(
                    f"{'instance too large' if budget is None else 'equivalence search budget exceeded'}: round {w} "
                    f"of the Brouwer-Zimmermann search would bring the row sums drawn to {total}, past "
                    + (f"the enumeration cap 2^{DEFAULT_ENUMERATION_CAP}" if budget is None else f"the budget {budget}")
                )
        yield w, i, [next(level[i]) if on else () for level, on in zip(levels, live)]


def _weight_divisor(code: LinearCode) -> int:
    """1 if a row is odd, 4 if all rows are doubly-even and code is self-orthogonal,
    else 2: a divisor of every weight, so a row no heavier is a lightest word."""
    if any(r.bit_count() & 1 for r in code.rows):
        return 1
    return 4 if all(r.bit_count() % 4 == 0 for r in code.rows) and code.is_self_orthogonal() else 2


def _bz_rounds(code: LinearCode, budget: int | None = None) -> Iterator[tuple[Iterable[list[int]], int]]:
    """(sums, bound) per round w >= 1 of _bz_streams over code alone, within
    budget, bound m*w + i + 1 rounded up to the weight divisor of the code."""
    step = _weight_divisor(code)
    gens = [g for g, _ in _information_set_generators(code)]
    m = len(gens)
    for w, i, (sums,) in _bz_streams(gens, [[0] * m], [True], budget):
        if w:
            yield sums, -(-(m * w + i + 1) // step) * step


def _distance_query(code: LinearCode, stop_at: int) -> tuple[int, int]:
    """(w, y): y the lightest word drawn, among the rows, then in the rounds of
    _bz_rounds, and w its weight: d past stop_at, else d <= w <= stop_at.

    The rows answer alone when the lightest weighs at most stop_at, or the
    divisor of every weight, or 4 in a self-dual code: its rows are [I | A]
    on the disjoint information sets P, its pivots, and N, the rest, with
    A A^T = I, and round (1, 0) of _bz_streams, so every other word has 2
    ones on P and 1 on N: it weighs at least 3, so 4, as weights are even.
    """
    if code.k == 0:
        raise ValueError("the zero-dimensional code has no minimum distance")
    word = min(code.rows, key=int.bit_count)
    if word.bit_count() <= max(stop_at, 4 if code.is_self_dual() else _weight_divisor(code)):
        return word.bit_count(), word
    for sums, bound in _bz_rounds(code):
        word = min(word, min(chain.from_iterable(sums), key=int.bit_count), key=int.bit_count)
        if word.bit_count() <= max(bound, stop_at):
            break
    return word.bit_count(), word


def _words_by_weight(code: LinearCode, budget: int | None = None) -> Iterator[tuple[int, set[int]]]:
    """(w, the set of nonzero codewords of weight w) for w = 1, 2, ..., n,
    from the rounds of _bz_rounds within budget.

    Weight w is yielded once a round of _bz_rounds bounds every word not yet
    drawn above it.  The sums are weighed into bytes as built and cut by
    weight with bytes.translate, into sets, since one word can come from
    several generators.  The last round has drawn every word: its bound is
    n + 1.  A byte holds weights to 255, so a longer code raises before any
    sum is drawn, and the equivalence search recurses at most 255 deep.
    """
    if code.n > 255:
        raise EnumerationCapError(f"instance too large: length {code.n} is past 255, the limit of the byte weights")
    drawn, weights, w = [], bytearray(), 1
    for sums, bound in chain(_bz_rounds(code, budget), [((), code.n + 1)]):
        for chunk in sums:
            drawn += chunk
            weights += bytes(map(int.bit_count, chunk))
        while w < bound and w <= code.n:
            yield w, set(compress(drawn, weights.translate(_only(w))))
            w += 1


Triple = tuple[int, str, int]


def _shadow_leaders(c: LinearCode, v: int) -> tuple[Triple, Triple, Triple]:
    """The (w, x, d) of c, of c_max + <v> and of c_max + <v + u>, from one
    Brouwer-Zimmermann search of a Type I self-dual c of length n divisible
    by 8 and of its shadow v + c, for any word v of that shadow.

    c_max is the maximal doubly-even subcode of c and u a word of c outside
    it.  For each of the three members of the neighborhood, w is the least
    weight of its words outside c_max, x the row text of the least such word
    of weight w, and d the member's minimum distance.

    Tags.  On c, x -> v . x is x -> (weight(x) / 2) mod 2, so the words of c
    with product 1 with v (tagged) are c minus c_max, of weights 2 mod 4, and
    the untagged ones are c_max, of weights 0 mod 4.  Shadow words weigh n/2
    = 0 mod 4, so v . v = 0 and (v + y) . v = y . v for y in c: the untagged
    half of the shadow is v + c_max, the words of c_max + <v> outside c_max,
    and the tagged half v + u + c_max, those of c_max + <v + u>.  Each row
    is lifted to the int of its row text, so that integer order is text
    order, shifted up over a tag bit that holds its product with v; a sum's
    ones are then its weight plus its tag, 0 mod 4 when untagged, 3 mod 4
    on c's tagged words and 1 mod 4 on the shadow's.

    Streams.  _bz_streams draws two streams over the lifted generators of
    c: c's from 0 and the shadow's from v_j, v plus the rows at its ones on
    I_j.  After round w of generator i, a word that a stream has not drawn
    weighs at least B = m*w + i + 1 (_bz_streams), so at least B2, the next
    even number, if it lies in c, and B4, the next multiple of 4, if it lies
    in c_max or in the shadow.

    Stops.  A least word x of weight w_x is settled once no word that its
    stream has not drawn is lighter, or as light and before x in text order.
    It is if w_x is below the bound b of its kind (B2 for c's tagged words,
    B4 for each shadow half): every word of weight w_x has been drawn.  At
    w_x = b it is if no word not drawn precedes x at all: such a word has
    at least need_j ones on each I_j, w + 1 for j <= i and w for the rest,
    more than _precedes_unseen finds room for in any word before x (O(wt(x)
    * m) popcounts, run only at equality).  A settled x stays settled, as
    the bounds and needs only grow.  The shadow's stream stops once the
    least words x_h of both halves are settled, of weights w_h.  c's stream
    stops once its least tagged word x_c, of weight w_c, is settled and
    c_max is known up to max w_h: either its least drawn weight L is at most
    B4, and then it is c_max's distance, or B4 >= max w_h, and then every
    word of c_max not drawn weighs at least as much as either half's.  The
    w_h that c's stream reads are the least drawn so far, which only fall,
    so the second case stays true.  A member's distance is the least of
    c_max's and of its coset's least weight, so the triples are (w_c, x_c,
    min(L, w_c)) and (w_h, x_h, min(L, w_h)): in each stop case, and once
    every round is drawn, min(L, .) is that least.

    The sums are weighed into bytes as _level_sums built them, at most
    _LEVEL_WORDS at a time; the least weights of each residue are found by
    probing `w in ones` upward in steps of 4, each probe a scan at C speed,
    and the lightest sums are cut out by bytes.translate.  Weights are kept
    to 254 with the tag: a sum of 255 or more raises, as one of 256 or more
    cannot be put in a byte.
    """
    n = c.n

    def text(r: int) -> int:
        return int(_to01(r, n), 2) << 1

    def lift(r: int) -> int:
        return text(r) | (r & v).bit_count() & 1

    gens, starts, sets = [], [], []
    for rows, pivots in _information_set_generators(c):
        gens.append(list(map(lift, rows)))
        sets.append(text(sum(pivots)))
        starts.append(lift(_reduced(rows, v, pivots)))
    m = len(gens)

    def open_at(found: tuple[int, int], b: int) -> bool:
        # found's weight is above b, or at b with an unseen word before it
        return found[0] & ~1 > b or found[0] & ~1 == b and not _precedes_unseen(found[1], sets, need)

    least, tagged, halves = n + 2, (n + 2, 0), [(n + 2, 0), (n + 2, 0)]
    live = [True, True]
    for w, i, (own, shadow) in _bz_streams(gens, [[0] * m, starts], live):
        for chunk in shadow:
            ones = _weighed(chunk)
            halves = [_lightest(chunk, ones, 4, halves[0]), _lightest(chunk, ones, 5, halves[1])]
        for chunk in own:
            ones = _weighed(chunk)
            least = next((x for x in range(4, min(least, 255), 4) if x in ones), least)
            tagged = _lightest(chunk, ones, 3, tagged)
        bound = m * w + i + 1
        b2, b4 = -(-bound // 2) * 2, -(-bound // 4) * 4
        need = [w + 1] * (i + 1) + [w] * (m - i - 1)
        live[:] = [
            live[0] and (open_at(tagged, b2) or least > b4 and max(h & ~1 for h, _ in halves) > b4),
            live[1] and (open_at(halves[0], b4) or open_at(halves[1], b4)),
        ]

    def triple(ones: int, word: int) -> Triple:
        return ones & ~1, format(word >> 1, f"0{n}b"), min(least, ones & ~1)

    return triple(*tagged), triple(*halves[0]), triple(*halves[1])


def _precedes_unseen(x: int, sets: list[int], need: list[int]) -> bool:
    """Whether no word with at least need[j] ones on each lifted information
    set sets[j] has a text before that of the lifted word x.

    A word y whose text precedes x's agrees with x above some 1-bit e of x's
    text and is 0 at e, so it has at most |x & I_j above e| + |I_j below e|
    ones on I_j; if at every such e that is below need[j] for some j, every
    such y has too few.
    """
    rest = x & ~1
    while rest:
        e = rest & -rest
        if not any(a > (x & -(e << 1) & s).bit_count() + (s & (e - 1)).bit_count() for s, a in zip(sets, need)):
            return False
        rest ^= e
    return True


def _weighed(chunk: list[int]) -> bytes:
    """The ones of each sum of chunk, as bytes; a sum of 255 or more raises."""
    try:
        ones = bytes(map(int.bit_count, chunk))
        if 255 in ones:
            raise ValueError
    except ValueError:
        raise EnumerationCapError(
            "instance too large: a row sum of the coset search weighs 255 or more "
            "with its tag bit, past the weight limit 254 of its byte weights"
        ) from None
    return ones


def _lightest(chunk: list[int], ones: bytes, first: int, best: tuple[int, int]) -> tuple[int, int]:
    """The least of best and the (ones, sum) of chunk whose ones lie in
    first, first + 4, ..., up to best's, ties included, and to 254."""
    w = next((w for w in range(first, min(best[0], 254) + 1, 4) if w in ones), 0)
    return min(best, (w, min(compress(chunk, ones.translate(_only(w)))))) if w else best


def _only(w: int) -> bytes:
    """The bytes.translate table that maps weight w to 1 and every other to 0."""
    return bytes(w) + b"\1" + bytes(255 - w)


def _level_sums(rows: Sequence[int], start: int) -> Iterator[Iterable[list[int]]]:
    """For w = 1, 2, ..., len(rows), the sums of start and w distinct rows, as
    lists of at most _LEVEL_WORDS sums each, in the order they are built.

    The sums of s rows are kept as a base list ordered by highest row index,
    so the first below[j] = C(j, s) of them use only rows before j, and those
    of s + 1 rows come from it by one list comprehension over the rows, row j
    added to each of its first below[j].  Once a level would pass
    _LEVEL_WORDS sums, the base stops growing: a sum of w rows is then a
    base sum XOR a sum of w - s rows t that all lie above the base sum's
    rows, so memory stays at one base list while w grows (_past_base).
    Read each level before the next.
    """
    k = len(rows)
    base, s = [start], 0
    for w in range(1, k + 1):
        below = [comb(j, s) for j in range(k)]
        if s == w - 1 and comb(k, w) <= _LEVEL_WORDS:
            base = [r ^ v for r, b in zip(rows, below) for v in islice(base, b)]
            s = w
            yield [base]
        else:
            yield _past_base(rows, base, below, s, w)


def _past_base(rows: Sequence[int], base: list[int], below: list[int], s: int, w: int) -> Iterator[list[int]]:
    """The sums of w rows from a base of sums of s rows, in lists of at most
    _LEVEL_WORDS: each set t of w - s rows adds its sum u to the below[t[0]]
    base sums under its first row, one list comprehension per list.  Only
    rows from s up can be first: below[j] is 0 for j < s."""
    group: list[tuple[int, int]] = []
    size = 0
    for t in combinations(range(s, len(rows)), w - s):
        b = below[t[0]]
        if size + b > _LEVEL_WORDS:
            yield [u ^ x for u, a in group for x in islice(base, a)]
            group, size = [], 0
        group.append((reduce(xor, map(rows.__getitem__, t)), b))
        size += b
    yield [u ^ x for u, a in group for x in islice(base, a)]


def from_generator(m: BitMatrix) -> LinearCode:
    """Code spanned by the rows of m; dependent rows are reduced away."""
    return LinearCode(m.ncols, m.row_ints())


def extremal_bound(n: int, code_type: CodeType) -> int:
    """Upper bound on the minimum distance of a self-dual code of length n.

    Type I: the lesser of 2*floor(n/8) + 2 and Rains' bound for every
    self-dual code, 4*floor(n/24) + 4, or + 6 when n = 22 mod 24 (Rains 1998).
    """
    if n < 1:
        raise ValueError("length must be positive")
    if code_type is CodeType.TYPE_I:
        return min(2 * (n // 8) + 2, 4 * (n // 24) + (6 if n % 24 == 22 else 4))
    if code_type is CodeType.TYPE_II:
        if n % 8:
            raise ValueError(f"doubly-even self-dual codes require 8 | n, got n={n}")
        return 4 * (n // 24) + 4
    raise ValueError(f"extremal bound is defined for TypeI/TypeII only, got {code_type}")
