"""The matrix text format: parse_matrix and serialize_matrix against the
per-token reference implementations below, on random and malformed text."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadsplit.core
from hadsplit.core import IntMatrix, ParseError, parse_matrix, serialize_matrix, sylvester


def reference_parse(text):
    """parse_matrix as one int() per token over a list of lists."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'nrows ncols', got {lines[0]!r}")
    try:
        nrows, ncols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {lines[0]!r}") from exc
    if nrows <= 0 or ncols <= 0:
        raise ParseError("dimensions must be positive")
    if len(lines) - 1 != nrows:
        raise ParseError(f"expected {nrows} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) == 1 and ncols > 1 and set(toks[0]) <= {"+", "-"}:
            toks = list(toks[0])
        if len(toks) != ncols:
            raise ParseError(f"expected {ncols} entries, got {len(toks)}: {ln!r}")
        row = []
        for t in toks:
            if t == "+":
                row.append(1)
            elif t == "-":
                row.append(-1)
            else:
                try:
                    row.append(int(t))
                except ValueError as exc:
                    raise ParseError(f"bad entry {t!r}") from exc
        rows.append(row)
    return IntMatrix(rows)


def reference_serialize(m):
    """serialize_matrix as one str() per entry."""
    out = [f"{m.nrows} {m.ncols}"]
    for i in range(m.nrows):
        out.append(" ".join(str(v) for v in m.row(i)))
    return "\n".join(out) + "\n"


def outcome(parse, text):
    try:
        m = parse(text)
    except (ParseError, OverflowError) as exc:
        return type(exc), str(exc)
    return m.shape, m.tolist()


def assert_parses_like_the_reference(text):
    assert outcome(parse_matrix, text) == outcome(reference_parse, text)


SAFE = 2**62 - 1
# str.split() separators; "\x0b", "\x1c" and "\u2028" also end a line for
# str.splitlines(), so a row that holds one falls apart
GAPS = [" ", "  ", "\t", " \t", "\x1f", "\xa0", "\u2003", "\u3000", "\x0b", "\x1c", "\u2028"]
BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x85"]
COMMENTS = ["# comment", "  # indented 1 2 3", "#"]
EXOTIC = ["+5", "-0", "007", "-007", "1_0", "1_000", "+" + "9" * 18]
# Arabic-Indic three, minus Arabic-Indic thirty, fullwidth one
EXOTIC += ["\u0663", "-\u0663\u0660", "\uff11"]
LONG = ["1" * 19, "-" + "0" * 18 + "7", str(2**62 - 1), str(-(2**62) + 1)]
HUGE = [str(2**62), str(-(2**62)), str(2**63), str(-(2**63)), str(2**64 + 1), "9" * 40]
JUNK = ["x", "1+", "+-", "--", "1.0", "0x1", "_1", "1__0", "++1", "\u0663x", "#", "\ud800", "e"]


def small_or_wide():
    return st.one_of(st.integers(-3, 3), st.integers(-SAFE, SAFE), st.integers(-(10**18), 10**18))


@st.composite
def matrix_texts(draw, faults=False):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    signs = draw(st.booleans())
    entries = st.sampled_from([1, -1]) if signs else small_or_wide()
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    lines = [f"{nrows}{draw(st.sampled_from(GAPS[:8]))}{ncols}"]
    for row in rows:
        if signs and ncols > 1 and draw(st.booleans()):
            lines.append("".join("+" if v == 1 else "-" for v in row))
            continue
        toks = []
        for v in row:
            tok = str(v)
            if v in (1, -1) and draw(st.booleans()):
                tok = "+" if v == 1 else "-"
            toks.append(tok)
        if draw(st.integers(0, 3)) == 0:
            toks[draw(st.integers(0, ncols - 1))] = draw(st.sampled_from(EXOTIC + LONG))
        line = draw(st.sampled_from(["", " ", "\t"]))
        for i, tok in enumerate(toks):
            if i:
                line += draw(st.sampled_from(GAPS if draw(st.integers(0, 9)) == 0 else GAPS[:8]))
            line += tok
        lines.append(line + draw(st.sampled_from(["", " ", "\u3000"])))
    if faults:
        for _ in range(draw(st.integers(1, 3))):
            r = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
            toks = lines[r].split()
            what = draw(st.sampled_from(["junk", "huge", "drop", "extra", "row"]))
            if what in ("junk", "huge") and toks:
                bad = draw(st.sampled_from(JUNK if what == "junk" else HUGE))
                toks[draw(st.integers(0, len(toks) - 1))] = bad
            elif what == "drop" and toks:
                toks.pop()
            elif what == "extra":
                toks.append(draw(st.sampled_from(["1", "-", "x"])))
            else:
                lines.insert(r, "1 " * ncols)
                continue
            lines[r] = " ".join(toks)
    for _ in range(draw(st.integers(0, 2))):
        skipped = draw(st.sampled_from(COMMENTS + ["", "   "]))
        lines.insert(draw(st.integers(0, len(lines))), skipped)
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(BREAKS))
    return text


@settings(max_examples=150, deadline=None)
@given(matrix_texts())
def test_parse_matches_the_reference(text):
    assert_parses_like_the_reference(text)


@settings(max_examples=150, deadline=None)
@given(matrix_texts(faults=True))
def test_parse_reports_the_reference_fault(text):
    assert_parses_like_the_reference(text)


@settings(max_examples=60, deadline=None)
@given(matrix_texts(faults=True), st.integers(1, 6))
def test_parse_in_small_blocks_matches_the_reference(text, tokens):
    # blocks of a few entries put the faults of one text in different blocks;
    # a function-scoped monkeypatch would be shared by every example
    saved = hadsplit.core._PARSE_TOKENS
    hadsplit.core._PARSE_TOKENS = tokens
    try:
        assert_parses_like_the_reference(text)
    finally:
        hadsplit.core._PARSE_TOKENS = saved


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(small_or_wide(), min_size=c, max_size=c), min_size=1, max_size=6
        )
    )
)
def test_serialize_matches_the_reference_and_round_trips(rows):
    m = IntMatrix(rows)
    text = serialize_matrix(m)
    assert text == reference_serialize(m)
    assert parse_matrix(text) == m
    assert serialize_matrix(parse_matrix(text)) == text


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_sign_matrices_round_trip(nrows, ncols, seed):
    m = IntMatrix(np.random.default_rng(seed).choice([-1, 1], size=(nrows, ncols)))
    text = serialize_matrix(m)
    assert text == reference_serialize(m)
    assert serialize_matrix(parse_matrix(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        # the first faulty line wins; on it a wrong count before a bad entry
        "2 2\n1 x\n1 2 3\n",
        "2 2\n1 2\n1 x 3\n",
        "2 2\nx y z\n1 x\n",
        "2 2\n1 x\n1 y\n",
        "2 2\nx y\n1 1\n",
        # a bad entry after a huge one, and a huge one after a bad one
        f"2 2\n{2**70} 1\n1 x\n",
        f"2 2\n1 x\n{2**70} 1\n",
        # the error of a huge entry names the largest magnitude in the matrix
        f"2 2\n{2**62} 1\n1 {-(2**80)}\n",
        f"2 2\n{2**62 - 1} -{2**62 - 1}\n+ -\n",
        # packed sign strings count their characters
        "2 3\n+-\n1 1 1\n",
        "2 3\n+-+-\n1 1 1\n",
        "1 1\n+-\n",
        "1 2\n+- 1\n",
        "1 1\n" + "1" * 5000 + "\n",
        # a header the rows cannot hold is a wrong count, not an allocation
        "2 100000000000\n1 1\n1 -1\n",
    ],
)
def test_parse_fault_precedence(text, monkeypatch):
    assert_parses_like_the_reference(text)
    monkeypatch.setattr(hadsplit.core, "_PARSE_TOKENS", 1)
    assert_parses_like_the_reference(text)


def test_regex_whitespace_is_the_split_set():
    # parse_matrix maps re's \s to a space in non-ASCII text and then
    # tokenizes as str.split() would; the two sets must agree
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def test_large_sign_matrix_round_trips_in_blocks():
    h = sylvester(9)
    text = serialize_matrix(h)
    assert text == reference_serialize(h)
    assert parse_matrix(text) == h
    rows = ("".join("+" if v == 1 else "-" for v in row) for row in h.tolist())
    packed = "512 512\n" + "\n".join(rows)
    assert parse_matrix(packed) == h


@pytest.mark.parametrize("order", [1, 2, 160, 1024])
def test_sign_and_bit_matrices_past_one_block_match_the_reference(order):
    # budget: 2 s for the four orders; order 1024, where reference_serialize
    # formats 2**20 entries one by one, took 0.5 s on one Xeon core
    rng = np.random.default_rng(order)
    for arr in (rng.choice([-1, 1], size=(order, order)), rng.integers(0, 2, size=(order, order))):
        m = IntMatrix(arr)
        text = serialize_matrix(m)
        assert text == reference_serialize(m)
        assert parse_matrix(text) == m


def test_all_distinct_wide_entries_match_the_reference():
    # 90000 entries of 19 digits, past the 18 of the byte path, so every
    # token goes through int(); budget 1 s, 0.2 s on one Xeon core
    rng = np.random.default_rng(7)
    picks = rng.choice(10**6, size=300 * 300, replace=False)
    arr = (SAFE - picks) * np.where(picks % 2, 1, -1)
    m = IntMatrix(arr.reshape(300, 300))
    assert len(np.unique(m.array)) == 300 * 300
    text = serialize_matrix(m)
    assert text == reference_serialize(m)
    assert parse_matrix(text) == m


def test_packed_sign_strings_of_order_1024_parse():
    # budget 1 s, 0.25 s on one Xeon core
    h = sylvester(10)
    rows = ("".join("+" if v == 1 else "-" for v in row) for row in h.tolist())
    packed = "1024 1024\n" + "\n".join(rows) + "\n"
    assert parse_matrix(packed) == h
    assert serialize_matrix(parse_matrix(packed)) == reference_serialize(h)
