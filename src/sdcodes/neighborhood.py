"""Neighborhoods of binary self-dual codes.

Two self-dual codes of the same even length n are neighbors when they meet in
dimension n/2 - 1.  Around a doubly-even self-orthogonal code c_max of
dimension n/2 - 1 (with the all-ones word) the dual of c_max splits into
c_max and three cosets, and each coset extends c_max to a self-dual code:
three pairwise neighbors sharing c_max.  For lengths divisible by 8 exactly
one of the three is Type I and the common subcode is its maximal doubly-even
subcode, so the triple can be reconstructed from any one Type I member.

A neighborhood is built by one Gray-code sweep of c_max, with each word also
shifted into the three cosets.  That sweep gives the minimum distance of
c_max, the canonical representative of each coset, and the weight
distribution of dual(c_max), which the singly-even verdict reads, so no
check enumerates the dual itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Mapping

from .code import CodeType, InternalConsistencyError, LinearCode, WeightEnumerator, _gray_blocks
from .gf2 import BitVector, _insert_rref, _kernel_rows, _to01


def max_doubly_even_subcode(c: LinearCode) -> LinearCode:
    """The unique maximal doubly-even subcode of a Type I code (dim k - 1).

    On a self-orthogonal code the map x -> (weight(x) / 2) mod 2 is linear,
    and for a Type I code it is onto, so its kernel has codimension 1.
    """
    ct = c.classify()
    if ct is not CodeType.TYPE_I:
        raise ValueError(f"maximal doubly-even subcode requires a Type I code, got {ct}")
    t = [(r.bit_count() >> 1) & 1 for r in c.rows]
    sub = LinearCode(c.n, _kernel_rows(c.rows, t))
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
    # weight distribution of dual(c_max): c_max and its three cosets
    dual_weights: WeightEnumerator

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
    return int(_to01(v, n), 2)


def _coset_leaders(
    c_max: LinearCode, offsets: list[int]
) -> tuple[int, list[tuple[int, int]], WeightEnumerator]:
    """One sweep of c_max: its minimum distance, the canonical representative
    of each coset offset + c_max as (weight, word) pairs in canonical order
    (minimum weight, then lexicographic), and the weight distribution of
    c_max together with those cosets.
    """
    c_max._check_cap()
    n = c_max.n
    flipped = [_reversed_bits(r, n) for r in c_max.rows]
    flipped_offsets = [_reversed_bits(g, n) for g in offsets]
    d = n + 1
    best = [(n + 1, 0)] * len(offsets)
    counts: Counter[int] = Counter()
    for block in _gray_blocks(flipped):
        words = list(block)
        weights = list(map(int.bit_count, words))
        counts.update(weights)
        d = min(d, min(filter(None, weights), default=d))
        for i, g in enumerate(flipped_offsets):
            coset = list(map(g.__xor__, words))
            weights = list(map(int.bit_count, coset))
            counts.update(weights)
            best[i] = min(best[i], min(zip(weights, coset)))
    leaders = [(w, _reversed_bits(x, n)) for w, x in sorted(best)]
    return d, leaders, WeightEnumerator(dict(sorted(counts.items())))


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

    offsets = [gammas[0], gammas[1], gammas[0] ^ gammas[1]]
    d_max, leaders, dual_weights = _coset_leaders(c_max, offsets)

    members: list[LinearCode] = []
    for _, rep in leaders:
        ext = LinearCode(n, _insert_rref(c_max.rows, rep))
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
        dual_weights=dual_weights,
    )


def neighborhood_of(c: LinearCode) -> Neighborhood:
    """The neighborhood anchored at a Type I self-dual code.

    The c_max shared by the triple is recovered as the maximal doubly-even
    subcode of c, which exists only for Type I members; pass one of them.
    """
    if not c.is_self_dual():
        raise ValueError("neighborhood_of requires a self-dual code")
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


def _step_certified(c: LinearCode, x: int, out: LinearCode) -> bool:
    """Whether out is proved self-dual as a step from a self-dual c by an
    even-weight x.

    True exactly when out has the dimension of c, every row of out lies in
    c + <x>, and every row is orthogonal to x.  That proves self-duality:
    rows a = u + x^i and b = v + x^j with u, v in c have a . b =
    i (x . v) + j (u . x), and u . x = a . x = 0.  A row's coset of c is
    read off at the pivots of c, which are zero in every other row of c;
    the rows of a correct step have at most two of them set, so the check
    costs O(k) row operations.  It reads only c, x and out, never the
    helpers that built out.
    """
    if out.k != c.k:
        return False
    # the pivots of the RREF rows of c, as gf2 defines them
    at_pivot = {r & -r: r for r in c.rows}
    pivots = sum(at_pivot)
    coset_x = c._reduce(x)
    for r in out.rows:
        if (r & x).bit_count() & 1:
            return False
        residue, hit = r, r & pivots
        while hit:
            p = hit & -hit
            residue ^= at_pivot[p]
            hit ^= p
        if residue and residue != coset_x:
            return False
    return True


def neighbor_step(c: LinearCode, x: BitVector) -> LinearCode:
    """The neighbor <{v in c : v . x = 0}, x> of a self-dual code c.

    x must have even weight and lie outside c; the result is again self-dual
    and meets c in dimension n/2 - 1.  Whether x lies outside c is read off
    its products t with the rows of c: since c = dual(c), x is in c exactly
    when every product is 0, so no reduction of x runs for it.  The rows of
    the result are built in RREF with O(k) row operations, so no elimination
    runs.  Its self-duality is proved from that of c by a certificate of O(k)
    row operations (_step_certified), not by a pairwise pass, and stored with
    it for the next step.
    """
    if not c.is_self_dual():
        raise ValueError("neighbor_step requires a self-dual code")
    if x.length != c.n:
        raise ValueError(f"length mismatch: {x.length} != {c.n}")
    if x.weight() % 2 != 0:
        raise ValueError("step vector must have even weight")
    out = _step(c, x.bits)
    if out is None:
        raise ValueError("step vector must lie outside the code")
    return out


def _step(c: LinearCode, x: int) -> LinearCode | None:
    """The neighbor step of the self-dual c by the even-weight x, or None when
    x lies in c, that is when every product of x with a row of c is 0."""
    t = [(r & x).bit_count() & 1 for r in c.rows]
    if 1 not in t:
        return None
    out = LinearCode(c.n, _insert_rref(_kernel_rows(c.rows, t), x))
    if not _step_certified(c, x, out):
        raise InternalConsistencyError("neighbor step produced a non-self-dual code")
    object.__setattr__(out, "_self_orthogonal", True)
    return out


def double_pair_code(n: int) -> LinearCode:
    """The direct sum of n/2 copies of the repetition code {00, 11}."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"length must be even and at least 2, got {n}")
    return LinearCode(n, [0b11 << (2 * i) for i in range(n // 2)])


def walk_self_dual(n: int, seed: int) -> Iterator[LinearCode]:
    """Seeded random walk on the neighbor graph, starting at double_pair_code.

    Yields the start code and then one code per step.  Words are drawn from
    random.Random(seed) one per iteration; a step is taken with each word
    that has even weight and lies outside the current code, and the others
    are skipped, so a given (n, seed) always replays the same path.
    The one self-dual code of length 2 has no neighbors, so a step there
    raises ValueError.
    """
    c = double_pair_code(n)
    rng = random.Random(seed)
    yield c
    if n == 2:
        raise ValueError("the self-dual code of length 2 has no neighbors")
    while True:
        x = rng.getrandbits(n)
        if x.bit_count() % 2 == 0 and (stepped := _step(c, x)) is not None:
            c = stepped
            yield c


def random_self_dual(n: int, steps: int, seed: int) -> LinearCode:
    """The code reached after `steps` seeded neighbor steps from double_pair_code."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    return next(islice(walk_self_dual(n, seed), steps, None))


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
    symmetric because the all-ones word lies in c_max.  The weights are the
    counts nb.dual_weights of the sweep that built the neighborhood, so the
    check enumerates nothing itself.
    """
    n = nb.c_max.n
    d = nb.type1_distance()
    singly = [(w, c) for w, c in nb.dual_weights.items() if w % 4 == 2]
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
