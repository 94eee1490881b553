"""Neighborhoods of binary self-dual codes.

Two self-dual codes of the same even length n are neighbors when they meet in
dimension n/2 - 1.  Around a doubly-even self-orthogonal code c_max of
dimension n/2 - 1 (with the all-ones word) the dual of c_max splits into
c_max and three cosets, and each coset extends c_max to a self-dual code:
three pairwise neighbors sharing c_max.  For lengths divisible by 8 exactly
one of the three is Type I and the common subcode is its maximal doubly-even
subcode, so every triple is built from its Type I member: neighborhood_of
takes it, and neighborhood_containing finds it by its weight mod 4.

From the Type I member c the triple is built without the dual of c_max: the
shadow vector v of c (a sum of pivots of c) lies in dual(c_max) outside c,
so the other two members are the neighbor steps of c by v and by v + u, u
a row of c outside c_max, each built in one pass and certified in O(k).
Their words outside c_max make up the shadow v + c, split into its two
halves by the product with v, so one Brouwer-Zimmermann search of c and of
v + c, two streams of the driver code._bz_streams with rows tagged by that
product (code._shadow_leaders), finds each coset's canonical representative
and each member's distance; nothing is swept.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import compress, islice
from operator import or_, xor
from typing import Iterator

from .code import CodeType, InternalConsistencyError, LinearCode, _shadow_leaders
from .gf2 import BitVector, _check_lengths, _dropped, _insert_rref, _kernel_rows


def max_doubly_even_subcode(c: LinearCode) -> LinearCode:
    """The unique maximal doubly-even subcode of a Type I code (dim k - 1).

    On a self-orthogonal code the map x -> (weight(x) / 2) mod 2 is linear,
    and for a Type I code it is onto, so its kernel has codimension 1.
    """
    ct = c.classify()
    if ct is not CodeType.TYPE_I:
        raise ValueError(f"maximal doubly-even subcode requires a Type I code, got {ct}")
    return _shadow_cut(c)[0]


def _shadow_cut(c: LinearCode) -> tuple[LinearCode, int, int]:
    """(c_max, v, u) of a Type I code c: its maximal doubly-even subcode, the
    shadow vector v and the row u of c that the cut to c_max drops.

    t_i = (weight(r_i) / 2) mod 2 on the RREF rows r_i of c, and c_max is
    the kernel of that linear map, cut by _kernel_rows.  v is the sum of the
    pivots p_i with t_i = 1: a row has a 1 at its own pivot and 0 at the
    others, so v . r_j = t_j for every row, and v . x = (weight(x) / 2) mod 2
    for every x in c.  So v is orthogonal to c_max but not to u, and lies in
    dual(c_max) outside c = dual(c): in the shadow of c (Conway and Sloane
    1990).  c_max is a subcode of the self-orthogonal c, stored as such.
    """
    t = [(r.bit_count() >> 1) & 1 for r in c.rows]
    sub = LinearCode(c.n, _kernel_rows(c.rows, t))
    if sub.k != c.k - 1:
        raise InternalConsistencyError("doubly-even subcode has wrong dimension")
    object.__setattr__(sub, "_self_orthogonal", True)
    return sub, sum(compress(c.pivots, t)), c.rows[_dropped(t)]


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


def neighborhood_containing(c_max: LinearCode) -> Neighborhood:
    """Build the three self-dual extensions of a doubly-even c_max.

    Requires length divisible by 8, dimension n/2 - 1, self-orthogonality,
    and doubly-even generator rows.  The extensions are guaranteed self-dual
    exactly when c_max contains the all-ones word; a violation means the
    triple does not exist and raises InternalConsistencyError.

    Reducing the rows of dual(c_max) gives two words g0 and g1 from
    different cosets of c_max, and the three cosets are those of g0, g1 and
    g0 + g1.  Every word of a coset g + c_max weighs wt(g) mod 4 (Conway and
    Sloane 1990): wt(g + y) = wt(g) + wt(y) - 2|g & y| with wt(y) = 0 mod 4,
    as c_max is doubly-even, and |g & y| = g . y = 0 mod 2, as g lies in
    dual(c_max).  So the Type I member is c_max + <g> for the one g of the
    three with weight 2 mod 4.  It is built from the rows of c_max, proved
    self-dual by one pass, and the triple is neighborhood_of that member.
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
    # 1 has every pivot of the RREF rows set, so it lies in c_max exactly
    # when it is their XOR
    if reduce(xor, c_max.rows) != (1 << n) - 1:
        raise InternalConsistencyError("c_max lacks the all-ones word")

    # reduction against the RREF rows of c_max maps each coset to one word, so
    # two distinct nonzero reductions of dual rows generate dual / c_max
    gammas = list(dict.fromkeys(filter(None, map(c_max._reduce, c_max.dual().rows))))
    if len(gammas) < 2:
        raise InternalConsistencyError("dual of c_max does not exceed c_max by dimension 2")
    g0, g1 = gammas[:2]
    singly = [g for g in (g0, g1, g0 ^ g1) if g.bit_count() % 4 == 2]
    if len(singly) != 1:
        raise InternalConsistencyError(f"expected one coset of c_max of weight 2 mod 4, got {len(singly)}")
    # the member is self-dual, as 1 lies in c_max; its one pass proves it
    # before any step is taken from it
    member = LinearCode(n, _insert_rref(c_max.rows, c_max.pivots, singly[0])[0])
    if not member.is_self_dual():
        raise InternalConsistencyError("Type I member of c_max is not self-dual")
    return neighborhood_of(member)


def neighborhood_of(c: LinearCode) -> Neighborhood:
    """The neighborhood of a Type I self-dual code.

    The c_max shared by the triple is the maximal doubly-even subcode of c,
    which exists only for Type I members; pass one of them.  With v the
    shadow vector of c and u the row that the cut to c_max drops
    (_shadow_cut), u . v = 1, so the words of c orthogonal to v, and to
    v + u, are those of c_max: the other two members, c_max + <v> and
    c_max + <v + u>, are the steps of c by v and by v + u, each built by
    _step, as in a walk, and certified in O(k) row operations.  The pass
    that checks c is self-dual is the only one, and no dual is built.  A
    step vector in c would give c again, so the members must be Type I, II,
    II, the order of the triples of code._shadow_leaders(c, v).
    """
    if not c.is_self_dual():
        raise ValueError("neighborhood_of requires a self-dual code")
    ct = c.classify()
    if ct is CodeType.TYPE_II:
        raise ValueError(
            "neighborhood_of requires a Type I code; a Type II code is a member "
            "of many triples, so reconstruction is anchored at the Type I member"
        )
    if c.n % 8 != 0:
        raise ValueError(f"neighborhood construction requires length divisible by 8, got {c.n}")
    c_max, v, u = _shadow_cut(c)
    members = [c, *(_step(c, x) or c for x in (v, v ^ u))]
    types = [m.classify() for m in members]
    if types != [CodeType.TYPE_I, CodeType.TYPE_II, CodeType.TYPE_II]:
        raise InternalConsistencyError(
            f"expected one Type I and two Type II members, got {[t.value for t in types]}"
        )
    leaders, members, types = zip(*sorted(zip(_shadow_leaders(c, v), members, types)))
    _, words, distances = zip(*leaders)
    return Neighborhood(
        c_max=c_max,
        members=members,
        representatives=tuple(map(BitVector.from_string, words)),
        member_types=types,
        member_distances=distances,
    )


def are_neighbors(c1: LinearCode, c2: LinearCode) -> bool:
    """Whether two self-dual codes of one length meet in dimension n/2 - 1."""
    return _meet_dimension(c1, c2) == c1.n // 2 - 1


def _meet_dimension(c1: LinearCode, c2: LinearCode) -> int:
    """The dimension of the intersection of two self-dual codes of one length."""
    _check_lengths(c1.n, c2.n)
    if not (c1.is_self_dual() and c2.is_self_dual()):
        raise ValueError("are_neighbors requires self-dual codes")
    return c1.intersection(c2).k


def _step_certified(c: LinearCode, x: int, rows: tuple, pivots: tuple, mask: int, coset_x: int) -> bool:
    """Whether rows, pivots and mask are proved the RREF of a self-dual step
    from the self-dual c by x.

    Self-duality: x has even weight, there are k rows, each orthogonal to x
    and in c + <x>.  Rows a = u + x^i and b = v + x^j with u, v in c have
    a . b = u . v + i (x . v) + j (u . x) + ij (x . x) = 0: u . v = 0 as c
    is self-orthogonal, x . x = 0 as x is even, so u . x = a . x = 0, and
    likewise x . v = 0.  The claimed mask differs from c's in the bits
    mask ^ c._pivot_mask: none when the pivots are c's, else the dropped
    pivot p_j of c and the new one q, a bit of the mask outside c's, so not
    a pivot of c; each must be a single bit, q below 2^n.  The pivots must
    then be c's without p_j and with q inserted in order, so q lies
    strictly between its neighbours and the mask is c's less p_j plus q by
    construction; each row is paired by index with the row of c at its
    pivot, 0 at q, or with c's rows when nothing changed.  Their
    difference d lies in c + <x> when d, reduced against c,
    is 0 or coset_x, which must be c._reduce(x), computed from c and x
    alone.  As d is 0 at the kept pivots (below), that reduction adds the
    row r_j of c at p_j when d has a 1 there, and nothing else.  A correct
    step has at most four distinct d: 0, r_j, x reduced, and their sum.

    RREF: only the new row has a 1 at q, and each nonzero d fits in n bits,
    is 0 at the kept pivots, and has no bit below the pivot of the last row
    with difference d, so of any such row.  Then a row u + d, u the row of c
    at its pivot, has that pivot as its lowest bit and no other pivot, as u
    has neither, and the new row, d alone, has q as its lowest bit and no
    other pivot: the rows are the unique RREF with those pivots, and
    independent.  When the pivots are c's, every pivot is kept, so every d
    is 0 at all of them.  Soundness rests on two facts only: c's rows,
    pivots and mask are its RREF, and c is self-orthogonal, as stored with
    it.  It reads only c, x, the three it proves, and c's reduction of x.
    """
    if x.bit_count() & 1 or not len(rows) == len(pivots) == c.k or 1 in [(r & x).bit_count() & 1 for r in rows]:
        return False
    changed = mask ^ c._pivot_mask
    dropped, q = changed & c._pivot_mask, changed & mask
    partners, r_j = c.rows, 0
    if changed:
        if dropped.bit_count() != 1 or q.bit_count() != 1 or q >> c.n:
            return False
        j = c.pivots.index(dropped)
        ours, partners, r_j = [*c.pivots], [*c.rows], c.rows[j]
        del ours[j], partners[j]
        s = bisect_left(ours, q)
        ours.insert(s, q)
        partners.insert(s, 0)
        if pivots != tuple(ours):
            return False
        if not rows[s] & q or (reduce(or_, rows[:s], 0) | reduce(or_, rows[s + 1 :], 0)) & q:
            return False
    elif pivots != c.pivots:
        return False
    kept = mask ^ q
    diffs = list(map(xor, rows, partners))
    # last.index(d) == m finds the last row with difference d: row k - 1 - m, or ~m
    last = diffs[::-1]
    for d in set(diffs):
        if d and (d >> c.n or d & kept or d & -d < pivots[~last.index(d)]):
            return False
        if (d ^ r_j if d & dropped else d) not in (0, coset_x):
            return False
    return True


def neighbor_step(c: LinearCode, x: BitVector) -> LinearCode:
    """The neighbor <{v in c : v . x = 0}, x> of a self-dual code c.

    x must have even weight and lie outside c; the result is again self-dual
    and meets c in dimension n/2 - 1.  As c = dual(c), x lies in c exactly
    when its products with the rows of c are all 0.  The rows are built in
    RREF from one reduction of x and one pass over those of c (_step), and
    proved self-dual and in RREF by an O(k) certificate (_step_certified).
    """
    if not c.is_self_dual():
        raise ValueError("neighbor_step requires a self-dual code")
    _check_lengths(x.length, c.n)
    if x.weight() % 2 != 0:
        raise ValueError("step vector must have even weight")
    out = _step(c, x.bits)
    if out is None:
        raise ValueError("step vector must lie outside the code")
    return out


def _step(c: LinearCode, x: int) -> LinearCode | None:
    """The neighbor step of the self-dual c by the even-weight x, or None when
    x lies in c, that is when every product t_i = r_i . x with a row of c is 0.

    K, the words of c orthogonal to x, has the RREF rows r_i + t_i r_j, i != j,
    r_j the last row of value 1 (gf2._kernel_rows), sought from the end; the
    step inserts into them x', x reduced against them, read off x_c, x reduced
    against c once.  x_c + x lies in c = K + <r_j>, and in K exactly when x_c .
    x = x . x = 0; x_c and r_j are 0 at the pivots of K, so x' is x_c, or x_c +
    r_j when x_c . x is odd.  With q the lowest bit of x' (not 0, as x lies
    outside c), each new row is r_i + t_i r_j, plus x' when that sum has a 1 at
    q; row j, now 0, is dropped and x' goes in by pivot order: the unique RREF
    of the step, in one pass.  Its pivots are c's with p_j, the pivot of r_j,
    replaced by q, and its pivot mask is c's with the bits p_j and q flipped.
    _step_certified proves from c, x_c and these three, never t or x', that
    they are the RREF of a self-dual code; only then is the code stored, as
    they are (LinearCode._proved_step), with no RREF check of its own.
    """
    rows = c.rows
    j = next((j for j in range(c.k - 1, -1, -1) if (rows[j] & x).bit_count() & 1), None)
    if j is None:
        return None
    r_j, p_j, coset_x = rows[j], c.pivots[j], c._reduce(x)
    x_new = coset_x ^ r_j if (coset_x & x).bit_count() & 1 else coset_x
    q = x_new & -x_new
    i = bisect_left(c.pivots, q)
    new = [s ^ x_new if (s := r ^ r_j if (r & x).bit_count() & 1 else r) & q else s for r in rows]
    new.insert(i, x_new)
    new.remove(0)
    pivots = list(c.pivots)
    pivots.insert(i, q)
    pivots.remove(p_j)
    rows, pivots, mask = tuple(new), tuple(pivots), c._pivot_mask ^ p_j ^ q
    if not _step_certified(c, x, rows, pivots, mask, coset_x):
        raise InternalConsistencyError("neighbor step produced a non-self-dual code")
    return LinearCode._proved_step(c.n, rows, pivots, mask)


def double_pair_code(n: int) -> LinearCode:
    """The direct sum of n/2 copies of the repetition code {00, 11}, proved
    self-dual by _disjoint_even in O(k) row operations, not a pairwise pass."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"length must be even and at least 2, got {n}")
    c = LinearCode(n, [0b11 << (2 * i) for i in range(n // 2)])
    if not _disjoint_even(c.rows):
        raise InternalConsistencyError("double pair rows overlap or have odd weight")
    object.__setattr__(c, "_self_orthogonal", True)
    return c


def _disjoint_even(rows: tuple[int, ...]) -> bool:
    """Whether the rows have even weight and disjoint supports, so that every
    two, a row with itself included, are orthogonal."""
    weights = list(map(int.bit_count, rows))
    return not any(w & 1 for w in weights) and reduce(or_, rows, 0).bit_count() == sum(weights)


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


def verify_no_better_type1(nb: Neighborhood) -> dict:
    """Type I member distance never beats both Type II member distances, as
    the record {"check", "passed", "details"} that neighborhood --json prints."""
    d1 = nb.type1_distance()
    d2a, d2b = nb.type2_distances()
    return {
        "check": "no_better_type1",
        "passed": d1 <= max(d2a, d2b),
        "details": {"type1_distance": d1, "type2_distances": [d2a, d2b]},
    }


def verify_distance2_coincidence(nb: Neighborhood) -> dict:
    """When the Type I member has distance 2 the Type II distances coincide,
    as a record like verify_no_better_type1's; passed is None when d1 != 2."""
    d1 = nb.type1_distance()
    d2a, d2b = nb.type2_distances()
    if d1 != 2:
        passed, details = None, {"type1_distance": d1, "note": "not applicable"}
    else:
        passed, details = d2a == d2b, {"type1_distance": d1, "type2_distances": [d2a, d2b]}
    return {"check": "distance2_coincidence", "passed": passed, "details": details}
