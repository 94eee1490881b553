"""Neighborhoods of binary self-dual codes.

Two self-dual codes of the same even length n are neighbors when they meet in
dimension n/2 - 1.  Around a doubly-even self-orthogonal code c_max of
dimension n/2 - 1 (with the all-ones word) the dual of c_max splits into
c_max and three cosets, and each coset extends c_max to a self-dual code:
three pairwise neighbors sharing c_max.  For lengths divisible by 8 exactly
one of the three is Type I and the common subcode is its maximal doubly-even
subcode, so the triple can be reconstructed from any one Type I member.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .code import CodeType, InternalConsistencyError, LinearCode, _gray_blocks
from .gf2 import BitVector


def max_doubly_even_subcode(c: LinearCode) -> LinearCode:
    """The unique maximal doubly-even subcode of a Type I code (dim k - 1).

    On a self-orthogonal code the map x -> (weight(x) / 2) mod 2 is linear,
    and for a Type I code it is onto, so its kernel has codimension 1.
    """
    ct = c.classify()
    if ct is not CodeType.TYPE_I:
        raise ValueError(f"maximal doubly-even subcode requires a Type I code, got {ct}")
    rows = c.rows
    t = [(r.bit_count() >> 1) & 1 for r in rows]
    j = t.index(1)
    sub = LinearCode(c.n, [r ^ rows[j] if t[i] else r for i, r in enumerate(rows) if i != j])
    if sub.k != c.k - 1:
        raise InternalConsistencyError("doubly-even subcode has wrong dimension")
    return sub


@dataclass(frozen=True)
class Neighborhood:
    """Three pairwise-neighboring self-dual codes with their common subcode.

    Members are ordered by their canonical coset representative (minimum
    weight, then lexicographic), so equal inputs give identical output.
    """

    c_max: LinearCode
    members: tuple[LinearCode, LinearCode, LinearCode]
    representatives: tuple[BitVector, BitVector, BitVector]
    member_types: tuple[CodeType, CodeType, CodeType]
    member_distances: tuple[int, int, int]

    def type1(self) -> LinearCode:
        return self.members[self.member_types.index(CodeType.TYPE_I)]

    def type2(self) -> tuple[LinearCode, LinearCode]:
        pair = [m for m, t in zip(self.members, self.member_types) if t is CodeType.TYPE_II]
        return (pair[0], pair[1])

    def type1_distance(self) -> int:
        return self.member_distances[self.member_types.index(CodeType.TYPE_I)]

    def type2_distances(self) -> tuple[int, int]:
        pair = [d for d, t in zip(self.member_distances, self.member_types) if t is CodeType.TYPE_II]
        return (pair[0], pair[1])


def _reversed_bits(v: int, n: int) -> int:
    # coordinate 0 becomes the most significant bit, so integer order on the
    # result is lexicographic order on the 0/1 coordinate string
    return int(format(v, f"0{n}b")[::-1], 2)


def _coset_leaders(c_max: LinearCode, offsets: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """One sweep of c_max: its minimum distance and the canonical
    representative of each coset offset + c_max, as (weight, word) pairs in
    canonical order (minimum weight, then lexicographic).
    """
    n = c_max.n
    flipped = [_reversed_bits(r, n) for r in c_max.rows]
    flipped_offsets = [_reversed_bits(g, n) for g in offsets]
    d = n + 1
    best = [(n + 1, 0)] * len(offsets)
    for block in _gray_blocks(flipped):
        words = list(block)
        d = min(d, min(filter(None, map(int.bit_count, words)), default=d))
        for i, g in enumerate(flipped_offsets):
            coset = list(map(g.__xor__, words))
            best[i] = min(best[i], min(zip(map(int.bit_count, coset), coset)))
    return d, [(w, _reversed_bits(x, n)) for w, x in sorted(best)]


def neighborhood_containing(c_max: LinearCode) -> Neighborhood:
    """Build the three self-dual extensions of a doubly-even c_max.

    Requires length divisible by 8, dimension n/2 - 1, self-orthogonality,
    and doubly-even generator rows.  The extensions are guaranteed self-dual
    exactly when c_max contains the all-ones word; a violation means the
    triple does not exist and raises InternalConsistencyError.
    """
    n = c_max.n
    if n % 8 != 0:
        raise ValueError(f"neighborhood construction requires length divisible by 8, got {n}")
    if c_max.k != n // 2 - 1:
        raise ValueError(f"c_max must have dimension {n // 2 - 1}, got {c_max.k}")
    if not c_max.is_self_orthogonal():
        raise ValueError("c_max must be self-orthogonal")
    if any(row.bit_count() % 4 for row in c_max.rows):
        raise ValueError("c_max must be doubly-even")

    # two generators of the 2-dimensional quotient dual / c_max; reduction
    # against the RREF rows of c_max maps each coset to one word
    gammas: list[int] = []
    for row in c_max.dual().rows:
        r = c_max._reduce(row)
        if r and r not in gammas:
            gammas.append(r)
            if len(gammas) == 2:
                break
    if len(gammas) != 2:
        raise InternalConsistencyError("dual of c_max does not exceed c_max by dimension 2")

    d_max, leaders = _coset_leaders(c_max, [gammas[0], gammas[1], gammas[0] ^ gammas[1]])

    members: list[LinearCode] = []
    for _, rep in leaders:
        ext = LinearCode(n, c_max.rows + (rep,))
        if not ext.is_self_dual():
            raise InternalConsistencyError(
                "coset extension is not self-dual; c_max lacks the all-ones word"
            )
        members.append(ext)

    types = tuple(m.classify() for m in members)
    if sorted(t.value for t in types) != ["TypeI", "TypeII", "TypeII"]:
        raise InternalConsistencyError(
            f"expected one Type I and two Type II members, got {[t.value for t in types]}"
        )
    # a coset's representative is one of its minimum-weight words
    distances = tuple(min(d_max, w) for w, _ in leaders)
    reps = tuple(BitVector(n, rep) for _, rep in leaders)
    return Neighborhood(
        c_max=c_max,
        members=(members[0], members[1], members[2]),
        representatives=(reps[0], reps[1], reps[2]),
        member_types=types,
        member_distances=distances,
    )


def neighborhood_of(c: LinearCode) -> Neighborhood:
    """The neighborhood anchored at a Type I self-dual code.

    The c_max shared by the triple is recovered as the maximal doubly-even
    subcode of c, which exists only for Type I members; pass one of them.
    """
    if not c.is_self_dual():
        raise ValueError("neighborhood_of requires a self-dual code")
    if c.n % 8 != 0:
        raise ValueError(f"neighborhood construction requires length divisible by 8, got {c.n}")
    ct = c.classify()
    if ct is CodeType.TYPE_II:
        raise ValueError(
            "neighborhood_of requires a Type I code; a Type II code is a member "
            "of many triples, so reconstruction is anchored at the Type I member"
        )
    nb = neighborhood_containing(max_doubly_even_subcode(c))
    if c not in nb.members:
        raise InternalConsistencyError("anchor code is missing from its own neighborhood")
    return nb


def are_neighbors(c1: LinearCode, c2: LinearCode) -> bool:
    """Whether two self-dual codes of one length meet in dimension n/2 - 1."""
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} != {c2.n}")
    if not (c1.is_self_dual() and c2.is_self_dual()):
        raise ValueError("are_neighbors requires self-dual codes")
    return c1.intersection(c2).k == c1.n // 2 - 1


def neighbor_step(c: LinearCode, x: BitVector) -> LinearCode:
    """The neighbor <{v in c : v . x = 0}, x> of a self-dual code c.

    x must have even weight and lie outside c; the result is again self-dual
    and meets c in dimension n/2 - 1.
    """
    if not c.is_self_dual():
        raise ValueError("neighbor_step requires a self-dual code")
    if x.length != c.n:
        raise ValueError(f"length mismatch: {x.length} != {c.n}")
    if x.weight() % 2 != 0:
        raise ValueError("step vector must have even weight")
    if c.contains(x):
        raise ValueError("step vector must lie outside the code")
    rows = c.rows
    t = [(r & x.bits).bit_count() & 1 for r in rows]
    j = t.index(1)  # nonzero somewhere: x outside c = dual(c)
    new_rows = [r ^ rows[j] if t[i] else r for i, r in enumerate(rows) if i != j]
    new_rows.append(x.bits)
    out = LinearCode(c.n, new_rows)
    if out.k != c.k or not out.is_self_dual():
        raise InternalConsistencyError("neighbor step produced a non-self-dual code")
    return out


def double_pair_code(n: int) -> LinearCode:
    """The direct sum of n/2 copies of the repetition code {00, 11}."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"length must be even and at least 2, got {n}")
    return LinearCode(n, [0b11 << (2 * i) for i in range(n // 2)])


def walk_self_dual(n: int, seed: int) -> Iterator[LinearCode]:
    """Seeded random walk on the neighbor graph, starting at double_pair_code.

    Yields the start code and then one code per step.  Step vectors are drawn
    from random.Random(seed) by rejection until even-weight and outside the
    current code, so a given (n, seed) always replays the same path.
    """
    c = double_pair_code(n)
    rng = random.Random(seed)
    yield c
    while True:
        while True:
            x = rng.getrandbits(n)
            if x.bit_count() % 2 == 0 and c._reduce(x):
                break
        c = neighbor_step(c, BitVector(n, x))
        yield c


def random_self_dual(n: int, steps: int, seed: int) -> LinearCode:
    """The code reached after `steps` seeded neighbor steps from double_pair_code."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    walk = walk_self_dual(n, seed)
    c = next(walk)
    for _ in range(steps):
        c = next(walk)
    return c


@dataclass(frozen=True)
class Verdict:
    """Outcome of one structural check; passed is None when not applicable."""

    check: str
    passed: bool | None
    details: Mapping[str, object] = field(default_factory=dict)


def verify_no_better_type1(nb: Neighborhood) -> Verdict:
    """Type I member distance never beats both Type II member distances."""
    d1 = nb.type1_distance()
    d2a, d2b = nb.type2_distances()
    return Verdict(
        check="no_better_type1",
        passed=d1 <= max(d2a, d2b),
        details={"type1_distance": d1, "type2_distances": [d2a, d2b]},
    )


def verify_distance2_coincidence(nb: Neighborhood) -> Verdict:
    """When the Type I member has distance 2 the Type II distances coincide."""
    d1 = nb.type1_distance()
    d2a, d2b = nb.type2_distances()
    if d1 != 2:
        return Verdict(
            check="distance2_coincidence",
            passed=None,
            details={"type1_distance": d1, "note": "not applicable"},
        )
    return Verdict(
        check="distance2_coincidence",
        passed=d2a == d2b,
        details={"type1_distance": d1, "type2_distances": [d2a, d2b]},
    )


def verify_singly_even_range(nb: Neighborhood) -> Verdict:
    """Singly-even words of dual(c_max) have weights in [d, n - d].

    d is the minimum distance of the Type I member; the weight cap is
    symmetric because the all-ones word lies in c_max.
    """
    n = nb.c_max.n
    d = nb.type1_distance()
    singly = [(w, c) for w, c in nb.c_max.dual().weight_enumerator().items() if w % 4 == 2]
    if not singly:
        return Verdict(
            check="singly_even_range",
            passed=None,
            details={"note": "dual of c_max has no singly-even words"},
        )
    lo, hi = singly[0][0], singly[-1][0]
    return Verdict(
        check="singly_even_range",
        passed=d <= lo and hi <= n - d,
        details={
            "distance": d,
            "length": n,
            "min_singly_even": lo,
            "max_singly_even": hi,
            "count_singly_even": sum(c for _, c in singly),
        },
    )
