"""Permutation equivalence of binary linear codes, with explicit witnesses.

Two codes are permutation equivalent when some relabeling of coordinates
maps one onto the other.  The decision procedure is exact: cheap invariant
rejections (low-weight counts, column coverage profiles) followed by a
depth-first search assigning images to a small-weight basis.  No code is
swept: both codes' words are read weight by weight, in step, from their
Brouwer-Zimmermann rounds (code._words_by_weight), and only up to the
weight of the heaviest basis word, since the search maps no heavier word.
A column's coverage profile counts the words of each weight covering it;
a count, or a multiset of profiles, that differs on the way rejects the
pair.  An equivalence keeps profiles, so the search pairs c1's and c2's
columns of each profile and splits each pair by a basis word and its
image, cutting a node whose pairs meet the two codes' light words
differently: in how many columns of each class a word covers, or in how
many words of each such kind cover a column.  These multisets are compared
as sorted lists, c2's counts before its colors, and a depth whose basis
word splits no class is not weighed again.  Any witness returned has been
verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from operator import add

from .code import (
    EnumerationCapError,
    InternalConsistencyError,
    LinearCode,
    _gray_index,
    _words_by_weight,
)
from .gf2 import BitVector, _insert_rref

EQUIVALENCE_MAX_LENGTH = 32
EQUIVALENCE_MAX_DIMENSION = 16


@dataclass(frozen=True)
class CoordinatePermutation:
    """A bijection of coordinate positions; images[i] is where i is sent."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images must be a permutation of 0..n-1")

    @classmethod
    def identity(cls, n: int) -> CoordinatePermutation:
        return cls(tuple(range(n)))

    def inverse(self) -> CoordinatePermutation:
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return CoordinatePermutation(tuple(inv))

    def then(self, other: CoordinatePermutation) -> CoordinatePermutation:
        """Composition: self first, then other."""
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different sizes")
        return CoordinatePermutation(tuple(other.images[i] for i in self.images))

    def apply(self, v: BitVector) -> BitVector:
        if v.length != len(self.images):
            raise ValueError(f"length mismatch: {v.length} != {len(self.images)}")
        return BitVector(v.length, _permute_bits(v.bits, self.images))


def _ones(x: int) -> list[int]:
    """The positions of the set bits of x, lowest first."""
    out = []
    while x:
        out.append((x & -x).bit_length() - 1)
        x &= x - 1
    return out


def _permute_bits(bits: int, images: tuple[int, ...]) -> int:
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << images[low.bit_length() - 1]
        bits ^= low
    return out


def apply_permutation(c: LinearCode, p: CoordinatePermutation) -> LinearCode:
    """The code with coordinates relabeled by p."""
    if c.n != len(p.images):
        raise ValueError(f"length mismatch: {c.n} != {len(p.images)}")
    return LinearCode(c.n, [_permute_bits(r, p.images) for r in c.rows])


def _column_profiles(n: int, groups) -> list[tuple[int, ...]]:
    """Per column, how many words of each nonempty group cover it: the
    group's words are written out as bit strings, column i at n - 1 - i of
    each, and each column's characters are counted at C speed."""
    texts = ["".join(map(f"{{:0{n}b}}".format, g)) for g in groups if g]
    return list(zip(*([t[n - 1 - i :: n].count("1") for i in range(n)] for t in texts)))


def _light(words: list[int], n: int) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
    """Light words as _meets reads them: the columns each covers, the words
    covering each column, and the powers of n + 1 and of one more than the
    number of words that _meets takes as digits."""
    columns = list(map(_ones, words))
    covers: list[list[int]] = [[] for _ in range(n)]
    for t, cols in enumerate(columns):
        for i in cols:
            covers[i].append(t)
    return columns, covers, [(n + 1) ** d for d in range(n)], [(len(words) + 1) ** d for d in range(len(words))]


def _meets(masks, light, known=None) -> tuple[list[int], list[int]]:
    """How classes meet the light words, in terms an equivalence keeps.

    A word's count is how many columns of each mask it covers, as digits in
    base n + 1; first come the words' counts, sorted.  A column's color is
    how many words of each count cover it, as digits in base one more than
    the number of words; second come the sorted colors of the columns in
    masks of three or more.  The counts fix the color of a column alone in
    its mask; in masks of two, colors cut no search of the benchmark's pool,
    and would be weighed at every node.  Sorted lists are equal exactly when
    the multisets are.  Given known, the meets of the partner classes,
    counts that differ from its counts come back without colors: they
    already tell the two apart.
    """
    columns, covers, powers, radices = light
    place = [0] * len(covers)
    for m, p in zip(masks, powers):
        while m:
            place[(m & -m).bit_length() - 1] = p
            m &= m - 1
    counts = [sum(map(place.__getitem__, c)) for c in columns]
    meets = sorted(counts)
    big = sum(m for m in masks if m.bit_count() > 2)
    if not big or known is not None and meets != known[0]:
        return meets, []
    digits = dict(zip(dict.fromkeys(meets), radices))
    radix = list(map(digits.__getitem__, counts))
    return meets, sorted(sum(map(radix.__getitem__, covers[i])) for i in _ones(big))


def _map_basis(depth: int, pairs, basis, by_weight, order, light1, light2, meets):
    """c1's and c2's columns as (c1 mask, c2 mask) pairs of classes, once
    images of basis[depth:] are chosen depth-first, each from c2's words of
    its weight in order, so that each meets every c2 class as its basis word
    meets the c1 class; or None.

    Both masks of a pair split together and keep equal sizes, so the images
    are a column permutation of the independent basis rows.  An equivalence
    below a node maps each class onto its partner and light words onto light
    words, so a node whose pairs meet light1 and light2 differently
    (_meets) is dead, and is cut.  c1's classes are the same at every node
    of a depth, so their meets are weighed on the first visit and kept by
    depth in meets.  A depth whose basis word splits none of them keeps them
    on both sides, so its children's meets are those that just passed: None
    in meets marks their depth, which weighs nothing.
    """
    if depth == len(basis):
        return pairs
    masks2 = [m2 for _, m2 in pairs]
    # once every class is one column, each depth has one image at most
    if any(m1 & (m1 - 1) for m1, _ in pairs):
        if depth == len(meets):
            meets.append(_meets([m1 for m1, _ in pairs], light1))
        if meets[depth] is not None and _meets(masks2, light2, meets[depth]) != meets[depth]:
            return None
    b = basis[depth]
    ones = [(b & m1).bit_count() for m1, _ in pairs]
    # an image covers the partner of each class inside b and misses that of
    # each class outside it; only the words that do are put in order
    whole = sum(m2 for m1, m2 in pairs if not m1 & ~b)
    fixed = whole + sum(m2 for m1, m2 in pairs if not m1 & b)
    if fixed == sum(masks2) and len(meets) == depth + 1:
        meets.append(None)
    images = (x for x in by_weight.get(b.bit_count(), ()) if x & fixed == whole)
    for cand in sorted(images, key=order):
        if list(map(int.bit_count, map(cand.__and__, masks2))) == ones:
            split = [(m1 & b, m2 & cand) for m1, m2 in pairs]
            split += [(m1 & ~b, m2 & ~cand) for m1, m2 in pairs]
            split = [p for p in split if p[0]]
            found = _map_basis(depth + 1, split, basis, by_weight, order, light1, light2, meets)
            if found is not None:
                return found
    return None


def are_permutation_equivalent(
    c1: LinearCode, c2: LinearCode
) -> CoordinatePermutation | None:
    """A coordinate permutation mapping c1 onto c2, or None.

    Exact at desk scale: lengths up to 32 and dimensions up to 16, enforced
    via EnumerationCapError; no 2^k sweep runs, so the dimension cap bounds
    the basis search.  A returned witness always satisfies
    apply_permutation(c1, witness) == c2.
    """
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} != {c2.n}")
    n = c1.n
    if n > EQUIVALENCE_MAX_LENGTH:
        raise EnumerationCapError(
            f"equivalence search supports length <= {EQUIVALENCE_MAX_LENGTH}, got {n}"
        )
    if max(c1.k, c2.k) > EQUIVALENCE_MAX_DIMENSION:
        raise EnumerationCapError(
            f"equivalence search supports dimension <= {EQUIVALENCE_MAX_DIMENSION}, "
            f"got {max(c1.k, c2.k)}"
        )
    if c1.k != c2.k:
        return None
    k = c1.k
    if k == 0 or c1 == c2:
        return CoordinatePermutation.identity(n)
    # small-weight basis of c1, whose words have few candidate images, in
    # (weight, word) order, read in step with c2 up to the heaviest basis
    # word; at each weight the counts, then the columns' profiles so far,
    # must agree
    groups1: dict[int, list[int]] = {}
    groups2: dict[int, set[int]] = {}
    prof1 = prof2 = [()] * n
    basis, span, pivots = [], [], []
    for (w, words1), (_, words2) in zip(_words_by_weight(c1), _words_by_weight(c2)):
        if len(words1) != len(words2):
            return None
        if words1:
            prof1 = list(map(add, prof1, _column_profiles(n, [words1])))
            prof2 = list(map(add, prof2, _column_profiles(n, [words2])))
            if sorted(prof1) != sorted(prof2):
                return None
        groups1[w] = sorted(words1)
        groups2[w] = words2
        for x in groups1[w]:
            grown, grown_pivots = _insert_rref(span, pivots, x)
            if len(grown) > len(span):
                basis.append(x)
                if len(basis) == k:
                    break
                span, pivots = grown, grown_pivots
        if len(basis) == k:
            break

    # an equivalence maps each column onto one of the same profile
    start = {p: [0, 0] for p in prof1}
    for i, (p1, p2) in enumerate(zip(prof1, prof2)):
        start[p1][0] |= 1 << i
        start[p2][1] |= 1 << i

    # light words, no heavier than the middle basis word, are few enough to
    # weigh at every node
    mid = basis[k // 2].bit_count()
    light1, light2 = (
        _light([x for w, g in gs.items() if w <= mid for x in g], n) for gs in (groups1, groups2)
    )
    # c2's candidates come in the order of its Gray sweep
    order = cache(partial(_gray_index, c2))
    classes = _map_basis(0, list(start.values()), basis, groups2, order, light1, light2, [])
    if classes is None:
        return None

    # pairs of equal size admit a column bijection realizing the map
    images = [0] * n
    for m1, m2 in classes:
        for i, j in zip(_ones(m1), reversed(_ones(m2))):
            images[i] = j
    witness = CoordinatePermutation(tuple(images))
    if apply_permutation(c1, witness) != c2:
        raise InternalConsistencyError("equivalence witness failed verification")
    return witness
