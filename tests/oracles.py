"""Naive reference implementations used to cross-check the library.

Everything here works on tuples of 0/1 ints and deliberately avoids the
library's packed-int representation and its span sweep (code._span_words):
different data layout, different algorithms, same answers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import accumulate, chain, combinations, compress, islice, permutations, product
from math import comb
from operator import xor

from sdcodes import code, neighborhood
from sdcodes.code import InternalConsistencyError, LinearCode
from sdcodes.fixtures_io import MatrixFormatError
from sdcodes.gf2 import BitVector, _to01
from sdcodes.neighborhood import Neighborhood


def to_bits(v) -> tuple[int, ...]:
    """Convert a library BitVector to a plain tuple of ints."""
    return tuple(int(ch) for ch in v.to01())


def o_weight(a) -> int:
    return sum(a)


def o_mu(a, b) -> int:
    return sum(x & y for x, y in zip(a, b))


def o_add(a, b) -> tuple[int, ...]:
    return tuple(x ^ y for x, y in zip(a, b))


def o_dot(a, b) -> int:
    return o_mu(a, b) % 2


def o_rref(rows) -> list[tuple[int, ...]]:
    """Reduced row echelon form over GF(2), scanning columns left to right."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        src = next((i for i in range(pivot_row, len(rows)) if rows[i][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows if any(r)]


def o_moved(rows, images) -> list[tuple[int, ...]]:
    """The rows with the symbol at coordinate i moved to images[i]."""
    out = []
    for row in rows:
        moved = [0] * len(row)
        for i, bit in enumerate(row):
            moved[images[i]] = bit
        out.append(tuple(moved))
    return out


def o_rank(rows) -> int:
    return len(o_rref(rows))


def o_codewords(rows) -> list[tuple[int, ...]]:
    """All codewords by re-encoding every message with a binary counter."""
    rows = [tuple(r) for r in rows]
    if not rows:
        return []
    k = len(rows)
    ncols = len(rows[0])
    out = []
    for msg in range(1 << k):
        word = (0,) * ncols
        for j in range(k):
            if (msg >> j) & 1:
                word = o_add(word, rows[j])
        out.append(word)
    return out


def o_min_distance(rows) -> int:
    weights = [o_weight(w) for w in o_codewords(o_rref(rows))]
    return min(w for w in weights if w > 0)


def o_weight_counts(rows) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in o_codewords(o_rref(rows)):
        counts[o_weight(w)] = counts.get(o_weight(w), 0) + 1
    return counts


def o_member(rows, v) -> bool:
    """Membership by rank comparison of the augmented row list."""
    base = o_rank(rows)
    return o_rank(list(rows) + [tuple(v)]) == base


def o_doubly_even_words(rows) -> set[tuple[int, ...]]:
    return {w for w in o_codewords(o_rref(rows)) if o_weight(w) % 4 == 0}


def o_orthogonal_all(rows, v) -> bool:
    return all(o_dot(r, v) == 0 for r in rows)


def all_vectors(length: int):
    return product((0, 1), repeat=length)


def o_coset_leader(rows, g) -> tuple[int, str]:
    """The least (weight, 0/1 string) over the words of g + span(rows)."""
    words = (o_add(g, c) for c in o_codewords(rows))
    return min((o_weight(w), "".join(map(str, w))) for w in words)


def o_equivalent(rows1, rows2, n: int) -> bool:
    """Permutation equivalence by trying all n! coordinate permutations.

    The spans are equal in dimension, and some permutation sends every row
    of rows1 into the set of codewords of rows2.  Only for n <= 8.
    """
    if n > 8:
        raise ValueError(f"brute-force equivalence is for n <= 8, got {n}")
    rows1 = o_rref(rows1)
    if len(rows1) != o_rank(rows2):
        return False
    words2 = set(o_codewords(o_rref(rows2)))
    return any(
        all(tuple(r[perm[i]] for i in range(n)) in words2 for r in rows1)
        for perm in permutations(range(n))
    )


def o_equivalent_by_rows(rows1, rows2, n: int) -> bool:
    """Permutation equivalence by choosing images of rows1's rows among the
    codewords of rows2, one row at a time.

    Some permutation sends each of the first j rows onto its image exactly
    when the columns of those rows and the columns of the images are equal
    as multisets of j-tuples, so a choice whose columns differ is dropped.
    Images of all rows, of equal dimension, span rows2's code.  For codes of
    up to a few hundred words.
    """
    rows1 = o_rref(rows1)
    if len(rows1) != o_rank(rows2):
        return False
    words2 = o_codewords(o_rref(rows2))

    def columns(rows):
        return sorted(tuple(r[i] for r in rows) for i in range(n))

    def extend(images):
        j = len(images)
        if j == len(rows1):
            return True
        return any(
            columns(rows1[: j + 1]) == columns(images + [w]) and extend(images + [w]) for w in words2
        )

    return extend([])


def o_column_coverage(c, top):
    """Per column, how many codewords of each nonzero weight up to top cover
    it, counted word by word."""
    words = o_codewords([to_bits(r) for r in c.generator])
    weights = sorted({o_weight(w) for w in words if 0 < o_weight(w) <= top})
    profiles = [Counter() for _ in range(c.n)]
    for w in words:
        for i, bit in enumerate(w):
            if bit:
                profiles[i][o_weight(w)] += 1
    return [tuple(p[w] for w in weights) for p in profiles]


def o_row(text: str) -> tuple[int, ...]:
    """The 0/1 symbols of a row text, one character at a time, spaces skipped."""
    row = []
    for pos, ch in enumerate(text, start=1):
        if ch == "0" or ch == "1":
            row.append(int(ch))
        elif ch != " ":
            raise ValueError(f"position {pos}: invalid symbol {ch!r}")
    return tuple(row)


def o_parse_matrix(text) -> tuple[int, list[tuple[int, ...]]]:
    """(ncols, rows) of matrix text, read as parse_matrix reads it, with its
    MatrixFormatError messages; rows of up to MAX_LENGTH symbols only."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"matrix text must be ASCII: {exc}") from None
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixFormatError("empty input")

    header = None
    first = lines[0].split()
    if first and not all(set(tok) <= {"0", "1"} for tok in first):
        if len(first) != 2:
            raise MatrixFormatError(
                f"line 1: expected a data row of 0/1 symbols or a header 'n k', got {lines[0]!r}"
            )
        try:
            header = (int(first[0]), int(first[1]))
        except ValueError:
            raise MatrixFormatError(f"line 1: malformed header {lines[0]!r}") from None
        if header[0] < 1 or header[1] < 0:
            raise MatrixFormatError(f"line 1: invalid header dimensions {header}")
        lines = lines[1:]

    rows = []
    ncols = None
    for lineno, raw in enumerate(lines, start=2 if header else 1):
        stripped = raw.rstrip()
        if not stripped:
            raise MatrixFormatError(f"line {lineno}: blank line inside matrix data")
        try:
            row = o_row(stripped)
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}, {exc}") from None
        if not row:
            raise MatrixFormatError(f"line {lineno}: no symbols found")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise MatrixFormatError(
                f"line {lineno}: ragged row of {len(row)} symbols, expected {ncols}"
            )
        rows.append(row)

    if header is not None:
        n, k = header
        if ncols is None:
            ncols = n
        if k != len(rows) or n != ncols:
            raise MatrixFormatError(
                f"header says {n} x {k} but data is {ncols} x {len(rows)}"
            )
    if ncols is None:
        raise MatrixFormatError("no matrix data found")
    return ncols, rows


# The neighbor step on packed ints, as a reference for the library's: its
# certificate pairs each row with the row of c at the same pivot through a
# dict, and the insertion of x computes the pivots of the kernel rows from
# them.  Only x of even weight is a step; the certificate does not check it.


def o_step_certified(c, x: int, out) -> bool:
    """out has the dimension of c, its rows are orthogonal to x, and each
    row's difference from the row of c at its pivot, cleared at the pivots
    of c it hits, is 0 or the reduction of x."""
    if out.k != c.k or any((r & x).bit_count() & 1 for r in out.rows):
        return False
    at_pivot = dict(zip(c.pivots, c.rows))
    mask, coset_x = sum(c.pivots), c._reduce(x)
    diffs = {r ^ at_pivot.get(p, 0) for r, p in zip(out.rows, out.pivots)}
    for d in diffs:
        hit = d & mask
        while hit:
            p = hit & -hit
            d ^= at_pivot[p]
            hit ^= p
        if d not in (0, coset_x):
            return False
    return True


def o_step(c, x: int):
    """The step of the self-dual c by the even x, or None when x lies in c:
    the rows of value 1 cut by the last of them, x reduced against the rest
    and inserted at its lowest bit, the result certified by o_step_certified."""
    t = [(r & x).bit_count() & 1 for r in c.rows]
    if 1 not in t:
        return None
    j = len(t) - 1 - t[::-1].index(1)
    kernel = [r ^ c.rows[j] if t[i] else r for i, r in enumerate(c.rows) if i != j]
    pivots = [r & -r for r in kernel]
    y = x
    for row, p in zip(kernel, pivots):
        if y & p:
            y ^= row
    q = y & -y
    rows = [r ^ y if r & q else r for r in kernel]
    rows.insert(bisect_left(pivots, q), y)
    out = LinearCode(c.n, rows)
    if not o_step_certified(c, x, out):
        raise InternalConsistencyError("reference step produced a non-self-dual code")
    return out


# The neighborhood built the former way, as a reference for the shadow-vector
# route: c_max cut from c by elimination, two offsets from the rows of its
# whole dual, and each member built by insertion and proved self-dual by its
# own pairwise pass.


def o_neighborhood_of(c):
    """The Neighborhood of a Type I c from dual(c_max), every member passed."""
    n, rows = c.n, c.rows
    halves = [(r.bit_count() // 2) % 2 for r in rows]
    first = rows[halves.index(1)]
    c_max = LinearCode(n, [r ^ first if h else r for r, h in zip(rows, halves) if r != first])
    if c_max.k != n // 2 - 1 or not c_max.is_self_orthogonal():
        raise InternalConsistencyError("reference c_max is wrong")
    gammas = list(dict.fromkeys(filter(None, map(c_max._reduce, c_max.dual().rows))))
    offsets = [gammas[0], gammas[1], gammas[0] ^ gammas[1]]
    members = [LinearCode(n, (*c_max.rows, g)) for g in offsets]
    types = [m.classify() for m in members]
    if sorted(t.value for t in types) != ["TypeI", "TypeII", "TypeII"] or c not in members:
        raise InternalConsistencyError("reference members are wrong")
    return o_ranked(c_max, members, types, offsets)


def o_by_steps(c_max, c, x: int, u: int):
    """The former neighborhood._by_steps: the library's certified steps of c
    by x and by x + u, then one search per member (o_coset_leader_bz)."""
    offsets = [u, x, x ^ u]
    members = [c, neighborhood._step(c, x), neighborhood._step(c, x ^ u)]
    return o_ranked(c_max, members, [m.classify() for m in members], offsets)


def o_ranked(c_max, members, types, offsets):
    """The Neighborhood of members c_max + <offsets[i]>, each searched on
    rows tagged with the next offset and ordered by its (w, x, d)."""
    tags = offsets[1:] + offsets[:1]
    found = sorted((*o_coset_leader_bz(m, g), m, t) for m, t, g in zip(members, types, tags))
    _, words, distances, members, types = zip(*found)
    return Neighborhood(
        c_max=c_max,
        members=members,
        representatives=tuple(map(BitVector.from_string, words)),
        member_types=types,
        member_distances=distances,
    )


# The coset search as it was before one search of the Type I member and its
# shadow gave all three members: one Brouwer-Zimmermann search per member on
# its own information sets, rows lifted to their text with a tag bit, the
# rounds' sums cut into chunks of _LEVEL_WORDS by islice.  o_coset_leader_bz
# reads the library's levels, o_coset_leader_min the former map-built ones
# and takes least weights by min over every byte.  The cap on level words is
# read from the library at each call, so a test that patches it patches both.


def o_level_sums(rows):
    """For w = 1..len(rows), the sums of w distinct rows, in the library's order."""
    k = len(rows)
    base, below, s = [0], [1] * k, 0
    for w in range(1, k + 1):
        if s == w - 1 and comb(k, w) <= code._LEVEL_WORDS:
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


def o_library_levels(rows):
    """code._level_sums from 0, each level one flat stream."""
    return map(chain.from_iterable, code._level_sums(rows, 0))


def o_bz_rounds(c, lift, level_sums):
    """(sums, bound) per generator per round of c's Brouwer-Zimmermann search,
    each generator row lifted first and its levels drawn by level_sums."""
    if any(r.bit_count() & 1 for r in c.rows):
        step = 1
    elif all(r.bit_count() % 4 == 0 for r in c.rows) and c.is_self_orthogonal():
        step = 4
    else:
        step = 2
    levels = [level_sums(list(map(lift, g))) for g, _ in code._information_set_generators(c)]
    m = len(levels)
    for w in range(1, c.k + 1):
        for i, level in enumerate(levels, 1):
            yield next(level), -(-(m * w + i) // step) * step


def o_tag_lift(n: int, tag: int):
    """Rows to the int of their text, over a bit of their product with tag."""
    return lambda r: int(_to01(r, n), 2) << 1 | (r & tag).bit_count() & 1


def o_coset_leader_bz(c, tag):
    """(w, x, d) of an even code c: the least weight w of a word with odd
    product with tag, the text x of the least such word of weight w, and the
    minimum distance d; byte probes, as code._coset_leader had them."""
    n = c.n
    best, least = (n + 2, 0), n + 2
    for sums, bound in o_bz_rounds(c, o_tag_lift(n, tag), o_library_levels):
        sums = iter(sums)
        while chunk := list(islice(sums, code._LEVEL_WORDS)):
            ones = bytes(map(int.bit_count, chunk))
            if 255 in ones:
                raise ValueError("a sum weighs 255 or more with its tag bit")
            least = next((w for w in range(1, least) if w in ones), least)
            odd = next((w for w in range(least | 1, best[0] + 1, 2) if w in ones), 0)
            if odd:
                only = bytes(odd) + b"\1" + bytes(255 - odd)
                best = min(best, (odd, min(compress(chunk, ones.translate(only)))))
        if best[0] - 1 < bound:
            break
    return best[0] - 1, format(best[1] >> 1, f"0{n}b"), least & ~1


_O_ODD = bytes(w if w & 1 else 255 for w in range(256))


def o_coset_leader_min(c, tag):
    """(w, x, d) as o_coset_leader_bz, on map-built levels with min over the bytes."""
    n = c.n
    best, least = (n + 2, 0), n + 2
    for sums, bound in o_bz_rounds(c, o_tag_lift(n, tag), o_level_sums):
        sums = iter(sums)
        while chunk := list(islice(sums, code._LEVEL_WORDS)):
            ones = bytes(map(int.bit_count, chunk))
            least = min(least, min(ones))
            odd = min(ones.translate(_O_ODD))
            if odd <= best[0]:
                only = bytes(odd) + b"\1" + bytes(255 - odd)
                best = min(best, (odd, min(compress(chunk, ones.translate(only)))))
        if best[0] - 1 < bound:
            break
    return best[0] - 1, format(best[1] >> 1, f"0{n}b"), least & ~1
