"""One reader for the three text formats, checked against the line reader.

``parse_graph``, ``parse_matching`` and ``parse_colouring`` read a document
once with ``read_records`` and check its records in one pass.
``helpers`` keeps a reference copy of the parsers that read and check one
line at a time.  On documents with at most one fault, the tests here
require an equal object or the same error message from both; on documents
with two faults, which the two may word differently, they pin the line
named.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from qcolour import (
    ColouringFormatError,
    EdgeColouring,
    Graph,
    GraphFormatError,
    MatchingFormatError,
    maximum_matching,
    parse_colouring,
    parse_graph,
    parse_matching,
    serialize_colouring,
    serialize_graph,
    serialize_matching,
)
from qcolour.graph import read_records, record_lines
from helpers import (
    line_parse_colouring,
    line_parse_graph,
    line_parse_matching,
    line_records,
    random_graph,
)

# "\x1f" is whitespace to str.split but no line boundary to str.splitlines.
_SEPARATORS = (" ", "\t", "  ", " \t ", "\x1f")
_ENDINGS = ("\n", "\r\n", "\r", "\x0c")
_NOT_INTEGERS = ("x", "1.5", "0x1", "--1", "1e3", "one")
CORRUPTIONS = ("width", "token", "comment", "range", "duplicate", "overlap", "count", "negative")


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


_REFERENCE = {
    parse_graph: line_parse_graph,
    parse_matching: line_parse_matching,
    parse_colouring: line_parse_colouring,
}


def _check_agreement(parse, text, *args):
    outcome = _outcome(parse, text, *args)
    assert outcome == _outcome(_REFERENCE[parse], text, *args), repr(text)
    return outcome


def _render(rows: list, rng: random.Random) -> str:
    """One document: token rows joined by random whitespace, with random
    line endings, leading and trailing blanks, and blank lines in between.
    A ``str`` row is written as it stands."""
    lines = []
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(("", " ", "\t")))
        if isinstance(row, str):
            lines.append(row)
            continue
        line = rng.choice(_SEPARATORS).join(row)
        lines.append(rng.choice(("", " ", "\t")) + line + rng.choice(("", " ", "\t ")))
    text = "".join(line + rng.choice(_ENDINGS) for line in lines)
    return text if rng.random() < 0.7 else text.rstrip("\r\n\x0c")


def _colour_label(rng: random.Random) -> int:
    return rng.choice((rng.randrange(3), rng.randrange(10**6), rng.randrange(10**40)))


def _documents(rng: random.Random):
    """A random graph with its matching and a colouring, as token rows."""
    g = random_graph(rng.randrange(0, 11), rng.choice((0.2, 0.4, 0.7)), rng)
    m = maximum_matching(g)

    def ends(u: int, v: int) -> list[str]:
        return [str(v), str(u)] if rng.random() < 0.3 else [str(u), str(v)]

    graph_rows = [[str(g.n), str(g.m)]] + [ends(u, v) for u, v in g.edges]
    matching_rows = [ends(*g.edges[eid]) for eid in sorted(m.edges.members)]
    rng.shuffle(matching_rows)
    colouring_rows = [ends(u, v) + [str(_colour_label(rng))] for u, v in g.edges]
    return g, graph_rows, matching_rows, colouring_rows


def _add_comment(rows: list, rng: random.Random) -> None:
    rows.insert(rng.randrange(len(rows) + 1), rng.choice(("# note", "#", "  # 1 2")))


def _corrupt(rows: list, first: int, kind: str, g, rng: random.Random) -> list:
    """``rows``, records of a document over ``g``, with one line corrupted
    by ``kind``; ``first`` is the index of the first record that is not a
    header."""
    rows = [list(row) for row in rows]
    records = range(first, len(rows))
    i = rng.choice(records) if records else None
    if kind == "comment":
        _add_comment(rows, rng)
    elif kind == "width" and rows:
        j = rng.randrange(len(rows))
        if rng.random() < 0.5:
            rows[j].pop()
        else:
            rows[j].append(str(rng.randrange(5)))
    elif kind == "token" and rows:
        row = rows[rng.randrange(len(rows))]
        row[rng.randrange(len(row))] = rng.choice(_NOT_INTEGERS)
    elif kind == "range" and i is not None:
        rows[i][rng.randrange(2)] = str(rng.choice((g.n, g.n + 3, -1)))
    elif kind == "duplicate" and i is not None and len(records) > 1:
        rows[i][:2] = rows[rng.choice([k for k in records if k != i])][:2]
    elif kind == "overlap" and i is not None and g.m:
        # Any graph edge: in a maximum matching's document it either repeats
        # a matching edge or shares a vertex with one.
        rows.insert(i, [str(x) for x in rng.choice(g.edges)] + rows[i][2:])
    elif kind == "count":
        if first and rng.random() < 0.5:
            rows[0][1] = str(int(rows[0][1]) + rng.choice((-1, 1)))
        elif i is not None and rng.random() < 0.5:
            del rows[i]
        else:
            rows.append(list(rows[-1]) if rows else ["0", "1"])
    elif kind == "negative":
        target = rows[i] if i is not None else rows[0] if rows else None
        if target is not None:
            target[-1] = str(-1 - rng.randrange(10**6))
    return rows


@given(st.integers(0, 2**32))
def test_parsers_match_the_line_reader_on_well_formed_documents(seed):
    rng = random.Random(seed)
    g, graph_rows, matching_rows, colouring_rows = _documents(rng)
    for rows, width, error in (
        (graph_rows, 2, GraphFormatError),
        (matching_rows, 2, MatchingFormatError),
        (colouring_rows, 3, ColouringFormatError),
    ):
        if rng.random() < 0.5:
            _add_comment(rows, rng)
        text = _render(rows, rng)
        numbered = list(line_records(text, width, error, ""))
        assert read_records(text, width, error, "") == [record for _, record in numbered]
        assert record_lines(text) == [lineno for lineno, _ in numbered]
    parsed = _check_agreement(parse_graph, _render(graph_rows, rng))
    assert parsed.n == g.n and [tuple(sorted(e)) for e in parsed.edges] == list(g.edges)
    assert _check_agreement(parse_matching, _render(matching_rows, rng), g) == maximum_matching(g)
    col = _check_agreement(parse_colouring, _render(colouring_rows, rng), g)
    assert col.graph == g


@pytest.mark.parametrize("kind", CORRUPTIONS)
@given(seed=st.integers(0, 2**32))
def test_parsers_match_the_line_reader_on_corrupted_documents(kind, seed):
    """One fault per document; half the documents also hold a comment, so a
    failed check must name its line past comment lines too."""
    rng = random.Random(seed)
    g, graph_rows, matching_rows, colouring_rows = _documents(rng)
    for parse, rows, first, args in (
        (parse_graph, graph_rows, 1, ()),
        (parse_matching, matching_rows, 0, (g,)),
        (parse_colouring, colouring_rows, 0, (g,)),
    ):
        rows = _corrupt(rows, first, kind, g, rng)
        if rng.random() < 0.5:
            _add_comment(rows, rng)
        _check_agreement(parse, _render(rows, rng), *args)


def _layout(rows: list) -> str:
    """``rows`` in the serializers' layout: one space between tokens, LF
    after every line."""
    return "".join(" ".join(row) + "\n" for row in rows)


def _shift(rows: list, rng: random.Random) -> list:
    """``rows`` with one token moved across a line boundary: every width
    but two is kept, and so is the token count."""
    rows = [list(row) for row in rows]
    if len(rows) > 1:
        i = rng.randrange(len(rows) - 1)
        rows[i + 1].insert(0, rows[i].pop())
    return rows


def _check_records(text: str, width: int, error: type[ValueError]) -> None:
    try:
        expected = [record for _, record in line_records(text, width, error, "")]
    except error as exc:
        with pytest.raises(error) as raised:
            read_records(text, width, error, "")
        assert str(raised.value) == str(exc), repr(text)
    else:
        assert read_records(text, width, error, "") == expected, repr(text)


@pytest.mark.parametrize("kind", ("none", "shift") + CORRUPTIONS)
@given(seed=st.integers(0, 2**32))
def test_parsers_match_the_line_reader_in_the_serializers_layout(kind, seed):
    """Documents whose every line is written the way the serializers write
    theirs, which ``read_records`` recognises without splitting each line:
    well formed, with one token moved to the next line, and with each
    corruption."""
    rng = random.Random(seed)
    g, graph_rows, matching_rows, colouring_rows = _documents(rng)
    for parse, rows, first, width, error, args in (
        (parse_graph, graph_rows, 1, 2, GraphFormatError, ()),
        (parse_matching, matching_rows, 0, 2, MatchingFormatError, (g,)),
        (parse_colouring, colouring_rows, 0, 3, ColouringFormatError, (g,)),
    ):
        if kind == "shift":
            rows = _shift(rows, rng)
        elif kind != "none":
            rows = _corrupt(rows, first, kind, g, rng)
        text = _layout(rows)
        _check_records(text, width, error)
        _check_agreement(parse, text, *args)


@given(st.integers(0, 2**32))
def test_serializer_output_reads_back_and_agrees_with_the_line_reader(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randrange(0, 11), rng.choice((0.2, 0.4, 0.7)), rng)
    m = maximum_matching(g)
    assert _check_agreement(parse_graph, serialize_graph(g)) == g
    assert _check_agreement(parse_matching, serialize_matching(m), g) == m
    col = EdgeColouring.from_values(g, [_colour_label(rng) for _ in g.edges])
    assert _check_agreement(parse_colouring, serialize_colouring(col), g) == col


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n",
        "0 1\n2 3",  # no final LF
        "0 1\n2 3\n\n",
        "0 1\r\n2 3\r\n",
        "0 x\n2 3\n",
        "0 1.5\n2 3\n",
        "0 -5\n2 3\n",
        "-5 -6\n",
        "# 1\n2 3\n",  # a comment in the layout
        "0 #\n2 3\n",
        "0 1\n2 #\n",
        "0 1 2\n3\n",  # a multiple of the width, in the wrong lines
        "0\n1 2 3\n",
        "0 1  2 3\n",
        "0 1 2 3\n",
        " 0 1\n2 3\n",
    ],
    ids=repr,
)
def test_read_records_agrees_with_the_line_reader_near_the_layout(text):
    _check_records(text, 2, GraphFormatError)
    _check_agreement(parse_graph, "2 1\n" + text)
    _check_agreement(parse_matching, text, Graph(4, ((0, 1), (2, 3), (1, 2))))


def test_read_records_reads_every_line_ending_and_names_the_first_malformed_line():
    def read(text):
        return read_records(text, 2, GraphFormatError, "edge", "header")

    assert read("1\t2\r\n\r\n3 4\x0c5 6") == [(1, 2), (3, 4), (5, 6)]
    assert record_lines("1\t2\r\n\r\n3 4\x0c5 6") == [1, 3, 4]
    assert read("") == [] and record_lines("") == []
    assert read("# 1 2 3\n\n1 2\n") == [(1, 2)]
    for text, message in (
        ("1 2 # trailing\n", "line 1: header, got '1 2 # trailing'"),
        ("1 x\n", "line 1: header, got '1 x'"),
        ("1 2 3\n4\n", "line 1: header, got '1 2 3'"),  # four integers, wrong widths
        ("# 1 2 3\n1 2\n\n3\n", "line 4: edge, got '3'"),
        ("1 2\n3 4\x1f5\n", "line 2: edge, got '3 4\\x1f5'"),
    ):
        with pytest.raises(GraphFormatError) as exc:
            read(text)
        assert str(exc.value) == message


_PATH = Graph(4, ((0, 1), (1, 2), (2, 3)))


@pytest.mark.parametrize(
    "parse, text, message",
    [
        # A malformed line is named before any value fault, wherever it lies.
        (parse_graph, "2000000 1\nx y\n", "line 2: edge must be 'u v', got 'x y'"),
        (parse_graph, "-1 1\n0 1 2\n", "line 2: edge must be 'u v', got '0 1 2'"),
        (parse_graph, "3 1\n0 1\n0 2\n1 x\n", "line 4: edge must be 'u v', got '1 x'"),
        (parse_matching, "0 3\n1 x\n", "line 2: matching edge must be 'u v', got '1 x'"),
        (parse_matching, "0 1\n1 0\n2 3 4\n", "line 3: matching edge must be 'u v', got '2 3 4'"),
        (parse_colouring, "0 1 -1\n1 2\n2 3 0\n", "line 2: expected 'u v colour', got '1 2'"),
        (
            parse_colouring,
            "0 1 0\n1 2 0\n2 3 0\n0 1 0\n1 x 0\n",
            "line 5: expected 'u v colour', got '1 x 0'",
        ),
        # Of two value faults, the graph's edge count is checked before its
        # edges; otherwise the first in document order is named.
        (parse_graph, "# c\n3 1\n0 5\n1 2\n", "line 4: more than 1 edges"),
        (
            parse_matching,
            "# c\n0 1\n1 2\n0 1\n",
            "line 3: edge (1, 2) shares a vertex with another matching edge",
        ),
        (parse_colouring, "# c\n1 0 5\n2 1 -3\n3 3 0\n", "line 3: negative colour -3"),
    ],
)
def test_the_first_malformed_line_is_named_before_any_value_fault(parse, text, message):
    args = () if parse is parse_graph else (_PATH,)
    with pytest.raises(ValueError) as exc:
        parse(text, *args)
    assert str(exc.value) == message
