import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sdcodes.fixtures_io import (
    FIXTURE_NAMES,
    MatrixFormatError,
    fixture,
    parse_matrix,
    serialize_matrix,
)
from sdcodes.gf2 import BitMatrix, BitVector

from oracles import o_parse_matrix, o_row, to_bits


@st.composite
def bitmatrix(draw):
    ncols = draw(st.integers(1, 40))
    nrows = draw(st.integers(1, 10))
    rows = [
        BitVector(ncols, draw(st.integers(0, (1 << ncols) - 1))) for _ in range(nrows)
    ]
    return BitMatrix(rows, ncols=ncols)


class TestParse:
    def test_spaced_and_unspaced(self):
        spaced = parse_matrix("1 0 1\n0 1 1\n")
        unspaced = parse_matrix("101\n011\n")
        assert spaced == unspaced
        assert spaced.nrows == 2 and spaced.ncols == 3

    def test_header_accepted_and_checked(self):
        m = parse_matrix("3 2\n101\n011\n")
        assert m.nrows == 2 and m.ncols == 3
        with pytest.raises(MatrixFormatError, match="header says"):
            parse_matrix("4 2\n101\n011\n")
        with pytest.raises(MatrixFormatError, match="header says"):
            parse_matrix("3 5\n101\n011\n")

    def test_header_only_empty_matrix(self):
        m = parse_matrix("3 0\n")
        assert m.nrows == 0 and m.ncols == 3

    def test_all_binary_first_line_is_data(self):
        # "1 1" is a 1 x 2 matrix, never a header
        m = parse_matrix("1 1\n")
        assert m.nrows == 1 and m.ncols == 2
        assert m.rows[0].to01() == "11"
        m = parse_matrix("10 01\n")
        assert m.nrows == 1 and m.ncols == 4

    def test_bytes_input(self):
        assert parse_matrix(b"101\n") == parse_matrix("101\n")
        with pytest.raises(MatrixFormatError, match="ASCII"):
            parse_matrix("1ü1\n".encode("utf-8"))

    def test_trailing_blank_lines_ignored(self):
        assert parse_matrix("11\n\n\n").nrows == 1

    def test_errors_carry_positions(self):
        with pytest.raises(MatrixFormatError, match="line 2.*position 3"):
            parse_matrix("101\n10x\n")
        with pytest.raises(MatrixFormatError, match="line 3.*ragged"):
            parse_matrix("101\n011\n01\n")
        with pytest.raises(MatrixFormatError, match="line 2.*blank"):
            parse_matrix("101\n\n011\n")
        with pytest.raises(MatrixFormatError, match="empty input"):
            parse_matrix("")
        with pytest.raises(MatrixFormatError, match="line 1"):
            parse_matrix("a b c\n")


def random_matrix_text(rng: random.Random) -> str | bytes:
    """Matrix text, mostly well formed, with the faults parse_matrix reports."""
    ncols = rng.randint(1, 12)
    rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(rng.randint(0, 5))]
    if rows and rng.random() < 0.15:
        ragged = rng.choice(rows)
        if len(ragged) > 1 and rng.random() < 0.5:
            ragged.pop()
        else:
            ragged.append(1)
    lines = []
    for row in rows:
        style = rng.choice(("", " ", "mixed"))
        if style == "mixed":
            line = "".join(str(b) + " " * rng.choice((0, 0, 1, 2)) for b in row)
        else:
            line = style.join(map(str, row))
        lines.append(" " * rng.choice((0, 0, 0, 1, 3)) + line)
    header = rng.choice((None, None, "right", "wrong", "malformed"))
    if header == "right":
        lines.insert(0, f"{ncols} {len(rows)}")
    elif header == "wrong":
        lines.insert(0, f"{ncols + rng.choice((-1, 0, 1))} {len(rows) + rng.choice((-1, 1))}")
    elif header == "malformed":
        lines.insert(0, rng.choice(("a b", "3", "3 2 1", "x 2", "0 2", "3 -1", "-1 2")))
    eol = rng.choice(("\n", "\r\n"))
    text = eol.join(lines) + rng.choice(("", eol, eol * 3, eol + "  " + eol))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(("x", "\t", "2", "\u00fc", "\u0661", "\u00a0", "\n")) + text[i:]
    return text.encode("utf-8") if rng.random() < 0.3 else text


FAULTS = ("invalid symbol", "ragged", "blank line", "header", "ASCII", "empty input")


def read_rows(text):
    m = parse_matrix(text)
    return m.ncols, [to_bits(r) for r in m.rows]


def outcome(read, text):
    """What read(text) returns, or the type and message of its ValueError."""
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


class TestReferenceParser:
    """parse_matrix and BitVector.from_string against the per-character
    reader of tests/oracles.py: same rows, same errors."""

    def test_same_matrices_and_errors(self):
        rng = random.Random(19)
        kinds = Counter()
        for _ in range(12_000):
            text = random_matrix_text(rng)
            want = outcome(o_parse_matrix, text)
            assert outcome(read_rows, text) == want, text
            if isinstance(want[0], int):
                kinds["matrix"] += 1
            else:
                kinds.update(fault for fault in FAULTS if fault in want[1])
        # the texts draw every outcome often
        assert min(kinds[k] for k in ("matrix", *FAULTS)) >= 100, kinds

    def test_from_string_reads_the_same_bits(self):
        rng = random.Random(20)
        for _ in range(12_000):
            text = random_matrix_text(rng)
            if isinstance(text, bytes):
                text = text.decode("utf-8")
            for line in text.split("\n"):
                want = outcome(o_row, line)
                got = outcome(lambda t: to_bits(BitVector.from_string(t)), line)
                if want == ():
                    assert got[0] is ValueError and "vector length" in got[1]
                else:
                    assert got == want, line


class TestSerialize:
    def test_unspaced_default(self):
        m = BitMatrix([BitVector.from_string("101"), BitVector.from_string("011")])
        assert serialize_matrix(m) == "101\n011\n"
        assert serialize_matrix(m, spaced=True) == "1 0 1\n0 1 1\n"

    def test_empty_matrix_uses_header(self):
        m = BitMatrix([], ncols=3)
        assert serialize_matrix(m) == "3 0\n"
        assert parse_matrix(serialize_matrix(m)) == m

    def test_ambiguous_empty_matrices_rejected(self):
        # a header like "10 0" would read back as a data row
        for ncols in (1, 10, 11, 100):
            with pytest.raises(ValueError, match="not representable"):
                serialize_matrix(BitMatrix([], ncols=ncols))

    @given(bitmatrix(), st.booleans())
    def test_round_trip(self, m, spaced):
        text = serialize_matrix(m, spaced=spaced)
        assert parse_matrix(text) == m
        assert serialize_matrix(parse_matrix(text), spaced=spaced) == text


class TestFixtures:
    def test_names(self):
        assert FIXTURE_NAMES == ("G1", "G2", "G3", "G4", "G5", "G6")
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("G7")

    def test_dimensions(self):
        for name in FIXTURE_NAMES:
            m = fixture(name)
            assert m.nrows == 12 and m.ncols == 24

    def test_transcription_checksums(self):
        # the two triples share their first eleven rows
        for group in (("G1", "G2", "G3"), ("G4", "G5", "G6")):
            first = fixture(group[0]).rows[:11]
            for other in group[1:]:
                assert fixture(other).rows[:11] == first
        assert fixture("G1").rows[:11] != fixture("G4").rows[:11]
        last_row_weights = [fixture(name).rows[11].weight() for name in FIXTURE_NAMES]
        assert last_row_weights == [8, 8, 2, 6, 4, 8]

    def test_fixture_text_round_trips(self):
        for name in FIXTURE_NAMES:
            m = fixture(name)
            assert parse_matrix(serialize_matrix(m, spaced=True)) == m
