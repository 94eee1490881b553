"""Permutation equivalence of binary linear codes, with explicit witnesses.

Two codes are permutation equivalent when some relabeling of coordinates
maps one onto the other.  The decision procedure is exact: a depth-first
search assigns images to a small-weight basis.  No code is swept: both
codes' words are read weight by weight, in step, from their
Brouwer-Zimmermann rounds (code._words_by_weight), and only up to the
weight of the heaviest basis word, since the search maps no heavier word;
a count that differs on the way rejects the pair.  An equivalence keeps
how classes of columns meet the two codes' light words: in how many
columns of each class a word covers, and in how many words of each such
kind cover a column, its color.  So the search starts from one class of
all columns split by color, where a word's kind is its weight, splits each
pair of classes by a basis word and its image and then by color, and cuts
a split whose two sides meet the light words differently.  These multisets
are compared as sorted lists, c2's counts before its colors; c1's side is
weighed once per depth, and a depth whose basis word splits no class
weighs nothing.  Any witness returned has been verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import (
    EnumerationCapError,
    InternalConsistencyError,
    LinearCode,
    _words_by_weight,
)
from .gf2 import _check_lengths, _insert_rref, _ones

# row sums drawn per code, and light words that c2's weighings may read in one search, the root's included
EQUIVALENCE_WORD_BUDGET = 4_000_000


@dataclass(frozen=True)
class CoordinatePermutation:
    """A bijection of coordinate positions; images[i] is where i is sent.

    images may be any iterable; it is stored as a tuple.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a permutation of 0..n-1")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n: int) -> CoordinatePermutation:
        return cls(range(n))


def _permute_bits(bits: int, images: tuple[int, ...]) -> int:
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << images[low.bit_length() - 1]
        bits ^= low
    return out


def apply_permutation(c: LinearCode, p: CoordinatePermutation) -> LinearCode:
    """The code with coordinates relabeled by p."""
    _check_lengths(c.n, len(p.images))
    return LinearCode(c.n, [_permute_bits(r, p.images) for r in c.rows])


def _light(words: list[int], n: int) -> tuple[list[list[int]], list[list[int]], list[int], int]:
    """Light words as _weigh reads them: the columns each covers, the words
    covering each column, the powers of n + 1 that _weigh takes as digits,
    and one more than the number of words, the base of the other digits."""
    columns = list(map(_ones, words))
    covers: list[list[int]] = [[] for _ in range(n)]
    for t, cols in enumerate(columns):
        for i in cols:
            covers[i].append(t)
    return columns, covers, [(n + 1) ** d for d in range(n)], len(words) + 1


def _weigh(masks, light, known=None):
    """Classes split by how they meet the light words, in terms an
    equivalence keeps.

    A word's count is how many columns of each mask it covers, as digits in
    base n + 1.  A column's color is how many words of each count cover it,
    as digits in base one more than the number of words, and its tag is its
    mask's digit and its color.  Alone, this returns the words' counts,
    sorted; the columns' tags, sorted, which list each mask's colors in
    ascending order, each as often as it occurs; and the masks in order,
    each split into its columns of each color in that order.  Given known,
    the partner masks' result, it returns None as soon as the counts, then
    the tags, differ from known's, and otherwise only the split masks,
    aligned with known's.  Sorted lists are equal exactly when the multisets
    are.  The counts fix the color of a column alone in its mask.  Only the
    powers of the base that some count takes as its digit are built.
    """
    columns, covers, powers, base = light
    place = [0] * len(covers)
    for m, p in zip(masks, powers):
        while m:
            place[(m & -m).bit_length() - 1] = p
            m &= m - 1
    get = place.__getitem__
    counts = [sum(map(get, c)) for c in columns]
    meets = sorted(counts)
    if known is not None and meets != known[0]:
        return None
    digits = {m: base**d for d, m in enumerate(dict.fromkeys(meets))}
    radix = list(map(digits.__getitem__, counts)).__getitem__
    tags = list(zip(place, [sum(map(radix, c)) for c in covers]))
    tally = sorted(tags)
    if known is not None and tally != known[1]:
        return None
    split = dict.fromkeys(tally, 0)
    for i, tag in enumerate(tags):
        split[tag] |= 1 << i
    classes = list(split.values())
    return (meets, tally, classes) if known is None else classes


def _map_basis(depth: int, pairs, basis, by_weight, light1, light2, kept, spent):
    """c1's and c2's columns as (c1 mask, c2 mask) pairs of classes, once
    images of basis[depth:] are chosen depth-first, each from c2's words of
    its weight in increasing value, so that each meets every c2 class as its
    basis word meets the c1 class; or None.

    Both masks of a pair split together and keep equal sizes, so the images
    are a column permutation of the independent basis rows.  An equivalence
    below a node maps each class onto its partner and light words onto light
    words, so each column onto one of the same color: a child's halves are
    split by color (_weigh), and a child whose halves meet light1 and light2
    differently is dead, and is cut.  c1's halves are the same at every node
    of a depth, so they are weighed on the first visit and kept by depth in
    kept.  A depth whose basis word splits no class has one possible image,
    the partners of the classes inside it, and its child the same classes.
    No equivalence below a node is lost by a split or a cut, so the first
    leaf in order, and the witness, are those of the search without colors.
    spent[0] counts the light words that c2's weighings have read; one that
    would bring it past EQUIVALENCE_WORD_BUDGET raises EnumerationCapError.
    """
    if depth == len(basis):
        return pairs
    b = basis[depth]
    words = by_weight.get(b.bit_count(), ())
    masks2 = [m2 for _, m2 in pairs]
    # an image covers the partner of each class inside b and misses that of
    # each class outside it; only the words that do are sorted
    whole = sum(m2 for m1, m2 in pairs if not m1 & ~b)
    fixed = whole + sum(m2 for m1, m2 in pairs if not m1 & b)
    if fixed == sum(masks2):
        # b splits no class: whole is its one possible image
        if whole not in words:
            return None
        return _map_basis(depth + 1, pairs, basis, by_weight, light1, light2, kept, spent)
    halves1 = [m1 & c for c in (b, ~b) for m1, _ in pairs]
    if depth not in kept:
        kept[depth] = _weigh([m1 for m1 in halves1 if m1], light1)
    known = kept[depth]
    ones = [(b & m1).bit_count() for m1, _ in pairs]
    for cand in sorted(x for x in words if x & fixed == whole):
        if list(map(int.bit_count, map(cand.__and__, masks2))) == ones:
            halves2 = [m2 & c for c in (cand, ~cand) for m2 in masks2]
            spent[0] += len(light2[0])
            if spent[0] > EQUIVALENCE_WORD_BUDGET:
                raise EnumerationCapError(
                    f"equivalence search budget exceeded: c2's weighings would read {spent[0]} "
                    f"light words, past the budget {EQUIVALENCE_WORD_BUDGET}"
                )
            split = _weigh([m2 for m1, m2 in zip(halves1, halves2) if m1], light2, known)
            if split is not None:
                child = list(zip(known[2], split))
                found = _map_basis(depth + 1, child, basis, by_weight, light1, light2, kept, spent)
                if found is not None:
                    return found
    return None


def are_permutation_equivalent(
    c1: LinearCode, c2: LinearCode
) -> CoordinatePermutation | None:
    """A coordinate permutation mapping c1 onto c2, or None.

    No 2^k sweep runs, and one budget, EQUIVALENCE_WORD_BUDGET, bounds time
    and memory: each code's light words come from at most that many row sums
    of its Brouwer-Zimmermann rounds, and the basis search, which on some
    [24, 12] pairs visits hundreds of thousands of nodes, from at most that
    many light words read by its weighings of c2.  Past either, or past
    length 255 (_words_by_weight), EnumerationCapError, not an answer.
    A returned witness always satisfies apply_permutation(c1, witness) == c2.
    """
    _check_lengths(c1.n, c2.n)
    n = c1.n
    if c1.k != c2.k:
        return None
    k = c1.k
    if k == 0 or c1 == c2:
        return CoordinatePermutation.identity(n)
    # small-weight basis of c1, whose words have few candidate images, in
    # (weight, word) order, read in step with c2 up to the heaviest basis
    # word; at each weight the counts must agree
    groups1: dict[int, list[int]] = {}
    groups2: dict[int, set[int]] = {}
    basis, span, pivots = [], [], []
    for (w, words1), (_, words2) in zip(*(_words_by_weight(c, EQUIVALENCE_WORD_BUDGET) for c in (c1, c2))):
        if len(words1) != len(words2):
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

    # light words, no heavier than the middle basis word, are few enough to
    # weigh at every node
    mid = basis[k // 2].bit_count()
    light1, light2 = (
        _light([x for w, g in gs.items() if w <= mid for x in g], n) for gs in (groups1, groups2)
    )
    # one class of all columns, split by color: each column's count of
    # light words of each weight
    known = _weigh([(1 << n) - 1], light1)
    split = _weigh([(1 << n) - 1], light2, known)
    if split is None:
        return None
    classes = _map_basis(0, list(zip(known[2], split)), basis, groups2, light1, light2, {}, [len(light2[0])])
    if classes is None:
        return None

    # pairs of equal size admit a column bijection realizing the map
    images = [0] * n
    for m1, m2 in classes:
        for i, j in zip(_ones(m1), _ones(m2)):
            images[i] = j
    witness = CoordinatePermutation(images)
    if apply_permutation(c1, witness) != c2:
        raise InternalConsistencyError("equivalence witness failed verification")
    return witness
