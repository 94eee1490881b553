"""Permutation equivalence of binary linear codes, with explicit witnesses.

Two codes are permutation equivalent when some relabeling of coordinates
maps one onto the other.  The decision procedure is exact: cheap invariant
rejections (weight distribution, column coverage profiles) followed by a
depth-first search assigning images to a small-weight basis, pruned by
column pattern multisets.  Any witness returned has been verified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .code import EnumerationCapError, InternalConsistencyError, LinearCode
from .gf2 import BitVector

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


def _reduce(w: int, pivots: dict) -> int:
    # forward reduction by lowest set bit; 0 means dependent
    while w:
        low = w & -w
        row = pivots.get(low)
        if row is None:
            return w
        w ^= row
    return 0


def _column_coverage(words, n: int) -> Counter:
    """Multiset over columns of (weight -> covering codeword count) profiles."""
    cov = [Counter() for _ in range(n)]
    for w in words:
        wt = w.bit_count()
        while w:
            low = w & -w
            cov[low.bit_length() - 1][wt] += 1
            w ^= low
    return Counter(tuple(sorted(c.items())) for c in cov)


def _map_basis(depth: int, pats2, mpivots, basis, targets, by_weight, chosen) -> bool:
    """Extend chosen with independent images of basis[depth:] whose column
    patterns match targets; depth-first, candidates in codeword order.
    """
    if depth == len(basis):
        return True
    target = targets[depth]
    for cand in by_weight.get(basis[depth].bit_count(), ()):
        r = _reduce(cand, mpivots)
        if r == 0:
            continue
        new_pats = [p | (((cand >> i) & 1) << depth) for i, p in enumerate(pats2)]
        if Counter(new_pats) != target:
            continue
        chosen.append(cand)
        next_pivots = dict(mpivots)
        next_pivots[r & -r] = r
        if _map_basis(depth + 1, new_pats, next_pivots, basis, targets, by_weight, chosen):
            return True
        chosen.pop()
    return False


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
    if c1.weight_enumerator() != c2.weight_enumerator():
        return None

    words1 = c1.codewords()
    words2 = c2.codewords()
    if _column_coverage(words1, n) != _column_coverage(words2, n):
        return None

    # small-weight basis of c1; its words have few candidate images
    basis = []
    pivots = {}
    for w in sorted(words1[1:], key=lambda v: (v.bit_count(), v)):
        r = _reduce(w, pivots)
        if r:
            pivots[r & -r] = r
            basis.append(w)
            if len(basis) == k:
                break

    # column patterns of the basis, cumulatively per depth
    pats1 = [0] * n
    counters1 = []
    for d, b in enumerate(basis):
        for i in range(n):
            pats1[i] |= ((b >> i) & 1) << d
        counters1.append(Counter(pats1))

    by_weight = {}
    for w in words2[1:]:
        by_weight.setdefault(w.bit_count(), []).append(w)

    chosen: list[int] = []
    if not _map_basis(0, [0] * n, {}, basis, counters1, by_weight, chosen):
        return None

    # equal pattern multisets admit a column bijection realizing the map
    pats2 = [0] * n
    for d, m in enumerate(chosen):
        for i in range(n):
            pats2[i] |= ((m >> i) & 1) << d
    slots = {}
    for i, pat in enumerate(pats2):
        slots.setdefault(pat, []).append(i)
    images = [slots[pat].pop() for pat in pats1]
    witness = CoordinatePermutation(tuple(images))
    if apply_permutation(c1, witness) != c2:
        raise InternalConsistencyError("equivalence witness failed verification")
    return witness
