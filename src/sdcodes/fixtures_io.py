"""Plain-text generator matrix format and the six embedded length-24 fixtures.

Format: optional header line "n k", then one row per line with n symbols from
{0,1}, either contiguous or separated by spaces.  The fixtures G1..G6
are generator matrices of six self-dual (24,12) codes forming two
neighborhoods {G1,G2,G3} and {G4,G5,G6}; within each triple the first eleven
rows agree and span the common doubly-even subcode.
"""

from __future__ import annotations

from functools import lru_cache

from .gf2 import BitMatrix, BitVector, _from01


class MatrixFormatError(ValueError):
    """Malformed matrix text; message carries the offending line/position."""


def parse_matrix(text: str | bytes) -> BitMatrix:
    """Parse matrix text (spaced or unspaced rows, optional "n k" header).

    A first line whose non-space characters are all '0'/'1' is always data,
    never a header ("1 1" is a 1 x 2 matrix).  Trailing whitespace and
    trailing blank lines are ignored.
    """
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

    header: tuple[int, int] | None = None
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

    rows: list[BitVector] = []
    for lineno, raw in enumerate(lines, start=2 if header else 1):
        stripped = raw.rstrip()
        if not stripped:
            raise MatrixFormatError(f"line {lineno}: blank line inside matrix data")
        try:
            width, bits = _from01(stripped)
        except ValueError as exc:
            raise MatrixFormatError(f"line {lineno}, {exc}") from None
        if rows and width != rows[0].length:
            raise MatrixFormatError(
                f"line {lineno}: ragged row of {width} symbols, expected {rows[0].length}"
            )
        rows.append(BitVector(width, bits))

    # without a header every line is a row or an error, so only a header leaves rows empty
    ncols = rows[0].length if rows else header[0]
    if header is not None and header != (ncols, len(rows)):
        raise MatrixFormatError(
            f"header says {header[0]} x {header[1]} but data is {ncols} x {len(rows)}"
        )
    return BitMatrix(rows, ncols=ncols)


def serialize_matrix(m: BitMatrix, spaced: bool = False) -> str:
    """Render a matrix so that parse_matrix round-trips it bit-exactly.

    Row matrices are written without a header; an empty matrix is written as
    a header-only file "n 0".
    """
    if m.nrows == 0:
        if set(str(m.ncols)) <= {"0", "1"}:
            # the header line would read back as a data row
            raise ValueError(
                f"empty matrix with {m.ncols} columns is not representable"
            )
        return f"{m.ncols} 0\n"
    sep = " " if spaced else ""
    return "".join(sep.join(row.to01()) + "\n" for row in m.rows)


_SHARED_123 = """\
1 0 0 0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1 1 1 0 0 1
0 1 0 0 0 0 0 0 0 0 0 0 1 1 1 1 1 1 0 0 0 1 0 0
0 0 1 0 0 0 0 0 0 0 0 0 1 1 1 0 0 0 1 1 1 1 0 0
0 0 0 1 0 0 0 0 0 0 0 0 1 0 1 1 1 0 1 0 1 0 1 0
0 0 0 0 1 0 0 0 0 0 0 0 0 1 1 1 0 1 0 1 1 0 1 0
0 0 0 0 0 1 0 0 0 0 0 1 1 0 1 0 0 0 0 1 1 0 1 1
0 0 0 0 0 0 1 0 0 0 0 1 0 1 1 0 0 1 0 0 1 1 0 1
0 0 0 0 0 0 0 1 0 0 0 1 1 1 0 0 1 0 0 1 0 1 0 1
0 0 0 0 0 0 0 0 1 0 0 1 0 0 0 1 0 1 1 0 1 0 1 1
0 0 0 0 0 0 0 0 0 1 0 1 1 0 1 1 0 0 1 0 0 1 0 1
0 0 0 0 0 0 0 0 0 0 1 1 0 1 1 1 1 0 0 0 0 0 1 1
"""

_SHARED_456 = """\
1 0 0 0 0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1 1 1 1 0
0 1 0 0 0 0 0 0 0 0 0 1 0 1 0 1 1 0 1 1 1 0 0 0
0 0 1 0 0 0 0 0 0 0 0 1 0 1 0 1 1 1 0 0 0 1 1 0
0 0 0 1 0 0 0 0 0 0 0 1 0 0 1 0 1 0 1 1 0 1 1 0
0 0 0 0 1 0 0 0 0 0 0 0 0 1 1 1 1 0 0 1 0 0 1 1
0 0 0 0 0 1 0 0 0 0 0 0 0 1 0 0 1 1 1 1 0 1 0 1
0 0 0 0 0 0 1 0 0 0 0 0 0 0 1 0 1 1 0 0 1 1 1 1
0 0 0 0 0 0 0 1 0 0 0 1 1 1 1 0 1 0 0 0 1 0 1 0
0 0 0 0 0 0 0 0 1 0 0 1 0 1 1 0 0 1 1 0 1 1 0 0
0 0 0 0 0 0 0 0 0 1 0 1 1 0 0 0 1 1 0 1 1 1 0 0
0 0 0 0 0 0 0 0 0 0 1 1 0 0 1 1 0 1 0 1 1 0 1 0
"""

_FIXTURE_TEXT = {
    "G1": _SHARED_123 + "0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 1 1 1 1 0 1 1 1\n",
    "G2": _SHARED_123 + "0 0 0 0 0 0 0 0 0 0 0 1 0 0 1 0 1 1 1 1 0 1 1 0\n",
    "G3": _SHARED_123 + "0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 1\n",
    "G4": _SHARED_456 + "0 0 0 0 0 0 0 0 0 0 0 1 1 0 1 0 0 1 0 0 1 0 0 1\n",
    "G5": _SHARED_456 + "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 1 0 1 0 1 0 0 0\n",
    "G6": _SHARED_456 + "0 0 0 0 0 0 0 0 0 0 0 1 1 0 1 1 1 1 1 0 0 0 0 1\n",
}

FIXTURE_NAMES = tuple(sorted(_FIXTURE_TEXT))


@lru_cache(maxsize=None)
def fixture(name: str) -> BitMatrix:
    """One of the embedded generator matrices G1..G6."""
    try:
        text = _FIXTURE_TEXT[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return parse_matrix(text)
