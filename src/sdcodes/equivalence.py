"""Permutation equivalence of binary linear codes, with explicit witnesses.

Two codes are permutation equivalent when some relabeling of coordinates
maps one onto the other.  The decision procedure is exact: cheap invariant
rejections (weight distribution, column coverage profiles) followed by a
depth-first search assigning images to a small-weight basis.  Each code is
swept once in Gray-code order and weighed into bytes that count the weight
distribution; its 2^k words are not kept.  Only the words up to the weight
of the heaviest basis word are rebuilt, from their Gray index, and grouped
by weight, since the search maps no heavier word; a column's coverage
profile counts the words of each group covering it.  An equivalence keeps
profiles, so the search pairs c1's and c2's columns of each profile and
splits each pair by a basis word and its image, cutting a node whose pairs
meet the two codes' light words differently.  Any witness returned has been
verified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .code import (
    EnumerationCapError,
    InternalConsistencyError,
    LinearCode,
    _gray_word,
    _gray_words,
    _positions,
)
from .gf2 import BitVector, _insert_rref, _reduced

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


def _permute_bits(bits: int, images: tuple[int, ...]) -> int:
    out = 0
    for i, img in enumerate(images):
        out |= ((bits >> i) & 1) << img
    return out


def apply_permutation(c: LinearCode, p: CoordinatePermutation) -> LinearCode:
    """The code with coordinates relabeled by p."""
    if c.n != len(p.images):
        raise ValueError(f"length mismatch: {c.n} != {len(p.images)}")
    return LinearCode(c.n, [_permute_bits(r, p.images) for r in c.rows])


def _column_profiles(n: int, groups) -> list[tuple[int, ...]]:
    """Per column, how many words of each group cover it."""
    return [tuple(sum(map((1 << i).__and__, g)) >> i for g in groups) for i in range(n)]


def _meets(masks, words) -> Counter:
    """Over words, the multiset of how many columns of each mask a word covers."""
    return Counter(zip(*(list(map(int.bit_count, map(m.__and__, words))) for m in masks)))


def _map_basis(depth: int, pairs, basis, by_weight, light1, light2, meets):
    """c1's and c2's columns as (c1 mask, c2 mask) pairs of classes, once
    images of basis[depth:] are chosen depth-first in codeword order so that
    each meets every c2 class as its basis word meets the c1 class; or None.

    Both masks of a pair split together and keep equal sizes, so the images
    are a column permutation of the independent basis rows.  An equivalence
    below a node maps each class onto its partner and light words onto light
    words, so a node whose pairs meet light1 and light2 differently is dead,
    and is cut.  c1's classes are the same at every node of a depth, so their
    meets are weighed on the first visit and kept by depth in meets.
    """
    if depth == len(basis):
        return pairs
    # once every class is one column, each depth has one image at most
    if any(m1 & (m1 - 1) for m1, _ in pairs):
        if depth == len(meets):
            meets.append(_meets([m1 for m1, _ in pairs], light1))
        if _meets([m2 for _, m2 in pairs], light2) != meets[depth]:
            return None
    b = basis[depth]
    masks2 = [m2 for _, m2 in pairs]
    ones = [(b & m1).bit_count() for m1, _ in pairs]
    for cand in by_weight.get(b.bit_count(), ()):
        if list(map(int.bit_count, map(cand.__and__, masks2))) == ones:
            split = [(m1 & b, m2 & cand) for m1, m2 in pairs]
            split += [(m1 & ~b, m2 & ~cand) for m1, m2 in pairs]
            found = _map_basis(
                depth + 1, [p for p in split if p[0]], basis, by_weight, light1, light2, meets
            )
            if found is not None:
                return found
    return None


def are_permutation_equivalent(
    c1: LinearCode, c2: LinearCode
) -> CoordinatePermutation | None:
    """A coordinate permutation mapping c1 onto c2, or None.

    Exact at desk scale: lengths up to 32 and dimensions up to 16, enforced
    via EnumerationCapError.  A returned witness always satisfies
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
    # one Gray sweep per code, weighed into bytes; its 2^k words are not kept
    weights1, weights2 = (bytes(map(int.bit_count, _gray_words(c.rows))) for c in (c1, c2))
    present = [w for w in range(1, n + 1) if w in weights1]
    # both codes have 2^k - 1 nonzero words, so matching counts at c1's
    # weights leave c2 no word of another weight
    if any(weights1.count(w) != weights2.count(w) for w in present):
        return None

    # small-weight basis of c1, whose words have few candidate images, in
    # (weight, word) order; each group is value-sorted once the basis reaches it
    groups1: dict[int, list[int]] = {}
    by_weight = (
        groups1.setdefault(w, sorted([_gray_word(c1.rows, j) for j in _positions(weights1, w)])) for w in present
    )
    basis: list[int] = []
    span: list[int] = []
    for w in chain.from_iterable(by_weight):
        if _reduced(span, w):
            basis.append(w)
            if len(basis) == k:
                break
            span = _insert_rref(span, w)
    # c2's words of the same weights, in sweep order within a weight
    groups2 = {w: [_gray_word(c2.rows, j) for j in _positions(weights2, w)] for w in groups1}
    prof1, prof2 = (_column_profiles(n, g.values()) for g in (groups1, groups2))
    if Counter(prof1) != Counter(prof2):
        return None

    # an equivalence maps each column onto one of the same profile
    start = {p: [0, 0] for p in prof1}
    for i, (p1, p2) in enumerate(zip(prof1, prof2)):
        start[p1][0] |= 1 << i
        start[p2][1] |= 1 << i

    # light words, no heavier than the middle basis word, are few enough to
    # weigh at every node
    mid = basis[k // 2].bit_count()
    light1, light2 = ([x for w, g in gs.items() if w <= mid for x in g] for gs in (groups1, groups2))
    classes = _map_basis(0, list(start.values()), basis, groups2, light1, light2, [])
    if classes is None:
        return None

    # pairs of equal size admit a column bijection realizing the map
    images = [0] * n
    for m1, m2 in classes:
        cols1, cols2 = ([i for i in range(n) if (m >> i) & 1] for m in (m1, m2))
        for i, j in zip(cols1, reversed(cols2)):
            images[i] = j
    witness = CoordinatePermutation(tuple(images))
    if apply_permutation(c1, witness) != c2:
        raise InternalConsistencyError("equivalence witness failed verification")
    return witness
