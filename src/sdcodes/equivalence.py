"""Permutation equivalence of binary linear codes, with explicit witnesses.

Two codes are permutation equivalent when some relabeling of coordinates
maps one onto the other.  The decision procedure is exact: cheap invariant
rejections (weight distribution, column coverage profiles) followed by a
depth-first search assigning images to a small-weight basis.  Each code's
codewords are listed once, by one Gray sweep, and grouped by weight; the
group sizes are the weight distribution, and a column's coverage profile
counts the words of each group that cover it, up to the weight of the
heaviest basis word, since the search maps no heavier word.  Column pattern
multisets alone prune the search: a match at every depth already makes the
images independent.  Any witness returned has been verified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby

from .code import EnumerationCapError, InternalConsistencyError, LinearCode
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


def _weight_groups(words) -> dict[int, list[int]]:
    """words grouped by weight, lightest first, each group in the order given."""
    return {w: list(g) for w, g in groupby(sorted(words, key=int.bit_count), int.bit_count)}


def _column_profiles(n: int, groups: dict[int, list[int]], top: int) -> Counter:
    """Multiset over columns of how many words of each weight up to top cover it."""
    weights = [w for w in groups if w <= top]
    return Counter(
        tuple(sum(map((1 << i).__and__, groups[w])) >> i for w in weights) for i in range(n)
    )


def _map_basis(depth: int, classes, basis, targets, by_weight):
    """The columns of the images, grouped by pattern as (pattern, column mask)
    pairs, once images of basis[depth:] are chosen depth-first in codeword
    order so that each depth's pattern multiset matches targets; or None.

    Equal multisets make the images a column permutation of the independent
    basis rows, so the images are independent too.
    """
    if depth == len(basis):
        return classes
    bit = 1 << depth
    masks = [m for _, m in classes]
    # each class already has the target's size, so the number of its columns
    # that the image sets decides the counts of both patterns it splits into
    ones = [targets[depth][p | bit] for p, _ in classes]
    for cand in by_weight.get(basis[depth].bit_count(), ()):
        if list(map(int.bit_count, map(cand.__and__, masks))) == ones:
            split = [(p | bit, m & cand) for p, m in classes]
            split += [(p, m & ~cand) for p, m in classes]
            found = _map_basis(depth + 1, [c for c in split if c[1]], basis, targets, by_weight)
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
    groups1 = _weight_groups(c1.codewords()[1:])
    groups2 = _weight_groups(c2.codewords()[1:])
    if {w: len(g) for w, g in groups1.items()} != {w: len(g) for w, g in groups2.items()}:
        return None
    # c1's words in (weight, word) order, c2's in sweep order within a weight
    groups1 = {w: sorted(g) for w, g in groups1.items()}

    # small-weight basis of c1; its words have few candidate images
    basis: list[int] = []
    span: list[int] = []
    for w in chain.from_iterable(groups1.values()):
        if _reduced(span, w):
            basis.append(w)
            if len(basis) == k:
                break
            span = _insert_rref(span, w)
    top = basis[-1].bit_count()
    if _column_profiles(n, groups1, top) != _column_profiles(n, groups2, top):
        return None

    # column patterns of the basis, cumulatively per depth
    pats1 = [0] * n
    counters1 = []
    for d, b in enumerate(basis):
        for i in range(n):
            pats1[i] |= ((b >> i) & 1) << d
        counters1.append(Counter(pats1))

    classes = _map_basis(0, [(0, (1 << n) - 1)], basis, counters1, groups2)
    if classes is None:
        return None

    # equal pattern multisets admit a column bijection realizing the map
    slots = {p: [i for i in range(n) if (m >> i) & 1] for p, m in classes}
    images = [slots[pat].pop() for pat in pats1]
    witness = CoordinatePermutation(tuple(images))
    if apply_permutation(c1, witness) != c2:
        raise InternalConsistencyError("equivalence witness failed verification")
    return witness
