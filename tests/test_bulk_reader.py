"""The bulk reader and the line-by-line reader agree.

``parse_graph``, ``parse_matching`` and ``parse_colouring`` first read a
document with ``bulk_records`` and fall back to ``read_records`` when the
bulk reader rejects it or a record fails a check.  Each test here parses a
document twice, once as shipped and once with ``bulk_records`` replaced by
a reader that rejects everything, and requires an equal object or the same
error message from both.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from qcolour import (
    ColouringFormatError,
    GraphFormatError,
    MatchingFormatError,
    maximum_matching,
    parse_colouring,
    parse_graph,
    parse_matching,
)
from qcolour.graph import bulk_records, read_records
from helpers import random_graph

_READERS = ("qcolour.graph", "qcolour.matching", "qcolour.colouring")
# "\x1f" is whitespace to str.split but no line boundary to str.splitlines.
_SEPARATORS = (" ", "\t", "  ", " \t ", "\x1f")
_ENDINGS = ("\n", "\r\n", "\r", "\x0c")
_NOT_INTEGERS = ("x", "1.5", "0x1", "--1", "1e3", "one")
CORRUPTIONS = ("width", "token", "comment", "range", "duplicate", "overlap", "count", "negative")


@contextlib.contextmanager
def _line_path_only():
    with contextlib.ExitStack() as stack:
        for module in _READERS:
            stack.enter_context(
                mock.patch(f"{module}.bulk_records", lambda text, width: None)
            )
        yield


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _check_agreement(parse, text, *args):
    bulk = _outcome(parse, text, *args)
    with _line_path_only():
        line = _outcome(parse, text, *args)
    assert bulk == line, repr(text)
    return bulk


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


def _corrupt(rows: list, first: int, kind: str, g, rng: random.Random) -> list:
    """``rows``, records of a document over ``g``, with one line corrupted
    by ``kind``; ``first`` is the index of the first record that is not a
    header."""
    rows = [list(row) for row in rows]
    records = range(first, len(rows))
    i = rng.choice(records) if records else None
    if kind == "comment":
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(("# note", "#", "  # 1 2")))
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
def test_bulk_reader_matches_the_line_path_on_well_formed_documents(seed):
    rng = random.Random(seed)
    g, graph_rows, matching_rows, colouring_rows = _documents(rng)
    for rows, width, error in (
        (graph_rows, 2, GraphFormatError),
        (matching_rows, 2, MatchingFormatError),
        (colouring_rows, 3, ColouringFormatError),
    ):
        text = _render(rows, rng)
        assert bulk_records(text, width) == [
            record for _, record in read_records(text, width, error, "")
        ]
    parsed = _check_agreement(parse_graph, _render(graph_rows, rng))
    assert parsed.n == g.n and [tuple(sorted(e)) for e in parsed.edges] == list(g.edges)
    assert _check_agreement(parse_matching, _render(matching_rows, rng), g) == maximum_matching(g)
    col = _check_agreement(parse_colouring, _render(colouring_rows, rng), g)
    assert col.graph == g


@pytest.mark.parametrize("kind", CORRUPTIONS)
@given(seed=st.integers(0, 2**32))
def test_bulk_reader_matches_the_line_path_on_corrupted_documents(kind, seed):
    rng = random.Random(seed)
    g, graph_rows, matching_rows, colouring_rows = _documents(rng)
    _check_agreement(parse_graph, _render(_corrupt(graph_rows, 1, kind, g, rng), rng))
    _check_agreement(
        parse_matching, _render(_corrupt(matching_rows, 0, kind, g, rng), rng), g
    )
    _check_agreement(
        parse_colouring, _render(_corrupt(colouring_rows, 0, kind, g, rng), rng), g
    )


def test_bulk_reader_rejects_what_it_cannot_read_line_for_line():
    assert bulk_records("1 2\n3 4\n", 2) == [(1, 2), (3, 4)]
    assert bulk_records("1\t2\r\n\r\n3 4\x0c5 6", 2) == [(1, 2), (3, 4), (5, 6)]
    assert bulk_records("", 2) == []
    assert bulk_records("1 2 3\n4\n", 2) is None  # four integers, but wrong widths
    assert bulk_records("1 2\n# 3 4\n", 2) is None
    assert bulk_records("1 2 # trailing\n", 2) is None
    assert bulk_records("1 x\n", 2) is None
