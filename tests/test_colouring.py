from __future__ import annotations

import hashlib
import random
import re

import pytest
from hypothesis import given, strategies as st

from qcolour import (
    ColouringFormatError,
    EdgeColouring,
    Graph,
    matching_based_colouring,
    parse_colouring,
    serialize_colouring,
    validate,
)
from qcolour.analysis import matched_colour_map
from qcolour.instances import named
from helpers import (
    random_graph,
    reference_matching_based_colouring,
    relabelled_union,
    sparse_planted_pm_graph,
)


def test_constructor_requires_canonical_colours():
    g = Graph(3, ((0, 1), (1, 2)))
    EdgeColouring(g, (0, 1))
    EdgeColouring(g, (0, 0))
    with pytest.raises(ValueError, match="canonical"):
        EdgeColouring(g, (1, 0))
    with pytest.raises(ValueError, match="colour entries"):
        EdgeColouring(g, (0,))


@pytest.mark.parametrize("colour", [(0, 2, 1), (1, 0), (0, 0, 2)])
def test_constructor_rejects_colours_out_of_first_appearance_order(colour):
    g = Graph(4, ((0, 1), (1, 2), (2, 3))[: len(colour)])
    with pytest.raises(ValueError) as exc:
        EdgeColouring(g, colour)
    assert str(exc.value) == "colours must be canonical: 0..c-1 in order of first appearance"


def test_constructor_accepts_the_empty_colouring():
    col = EdgeColouring(Graph(2, ()), ())
    assert col.colour == () and col.num_colours == 0


def test_constructor_copies_a_list_into_a_tuple():
    g = Graph(3, ((0, 1), (1, 2)))
    colour = [0, 1]
    col = EdgeColouring(g, colour)
    colour[1] = 5
    assert col.colour == (0, 1)
    assert repr(col) == f"EdgeColouring(graph={g!r}, colour=(0, 1), num_colours=2)"
    assert hash(col) == hash(EdgeColouring(g, (0, 1)))


def test_from_values_merges_equal_hashables():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    col = EdgeColouring.from_values(g, [1, True, 1.0, "1"])
    assert col.colour == (0, 0, 0, 1)
    assert col.num_colours == 2


@pytest.mark.parametrize(
    "colour, bad", [((False, True), "False"), ((0.0, 1.0), "0.0"), ((0, True), "True")]
)
def test_constructor_rejects_colours_that_are_not_ints(colour, bad):
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match=f"^colour {bad} is not an int$"):
        EdgeColouring(g, colour)


def test_from_values_relabels_by_first_appearance():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    col = EdgeColouring.from_values(g, ["red", "blue", "red"])
    assert col.colour == (0, 1, 0)
    assert col.num_colours == 2
    assert col.vertex_colours(1) == frozenset({0, 1})


def test_validate_flags_smallest_offending_vertex():
    g = named("star_3")
    rainbow = EdgeColouring(g, (0, 1, 2))
    report = validate(g, rainbow, 2)
    assert not report.valid
    assert report.first_violation == (0, (0, 1, 2))
    assert report.colours_used == 3
    assert report.vertex_colour_counts == (3, 1, 1, 1)
    assert validate(g, rainbow, 3).valid


def test_validate_accepts_within_budget():
    g = named("cycle_4")
    col = EdgeColouring(g, (0, 1, 2, 3))
    report = validate(g, col, 2)
    assert report.valid
    assert report.first_violation is None
    assert report.to_json_dict()["valid"] is True


def _reference_report(g: Graph, col: EdgeColouring, q: int):
    """Per-vertex colour counts from a scan of the edge list, and the
    smallest vertex seeing more than ``q`` colours with its sorted colours."""
    seen: list[set[int]] = [set() for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        seen[u].add(col.colour[eid])
        seen[v].add(col.colour[eid])
    bad = [(v, tuple(sorted(s))) for v, s in enumerate(seen) if len(s) > q]
    return tuple(len(s) for s in seen), bad[0] if bad else None


@pytest.mark.parametrize("q", [1, 2, 3])
def test_validate_agrees_with_a_reference_scan(q):
    rng = random.Random(q)
    verdicts = set()
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng.choice((0.2, 0.4, 0.7)), rng)
        if g.m == 0:
            continue
        palette = rng.randint(1, q + 2)
        col = EdgeColouring.from_values(g, [rng.randrange(palette) for _ in g.edges])
        report = validate(g, col, q)
        counts, first = _reference_report(g, col, q)
        assert report.vertex_colour_counts == counts
        assert report.first_violation == first
        assert report.valid is (first is None)
        assert report.colours_used == col.num_colours
        verdicts.add(report.valid)
    assert verdicts == {True, False}


def test_validate_rejects_bad_q_and_foreign_graph():
    g = named("path_3")
    col = EdgeColouring(g, (0, 0))
    with pytest.raises(ValueError, match="positive"):
        validate(g, col, 0)
    with pytest.raises(ValueError, match="different graph"):
        validate(named("path_4"), col, 2)


def test_algorithm_on_even_cycle_uses_all_fresh_colours():
    col, m, h = matching_based_colouring(named("cycle_6"))
    assert m.size == 3
    assert h == 3
    assert col.num_colours == 6
    assert validate(col.graph, col, 2).valid


def test_algorithm_on_path_colours_middle_component():
    g = named("path_4")
    col, m, h = matching_based_colouring(g)
    assert m.size == 2
    assert h == 1
    assert col.num_colours == 3


def test_algorithm_on_single_edge():
    col, m, h = matching_based_colouring(named("path_2"))
    assert (m.size, h, col.num_colours) == (1, 0, 1)


def test_algorithm_rejects_edgeless_graph():
    with pytest.raises(ValueError, match="no edges"):
        matching_based_colouring(Graph(3, ()))


def test_algorithm_output_is_always_valid_and_sized():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.9), rng)
        if g.m == 0:
            continue
        col, m, h = matching_based_colouring(g)
        assert col.num_colours == m.size + h
        assert validate(g, col, 2).valid


def test_algorithm_equals_the_components_reference():
    """Isolated vertices, several components of G − M with edges, and a
    G − M with no edges at all are each met at least once."""
    rng = random.Random(23)
    graphs = [named("cycle_6"), Graph(6, ((0, 1), (2, 3), (4, 5))), Graph(7, ((2, 5),))]
    for _ in range(150):
        parts = [random_graph(rng.randint(1, 7), rng.uniform(0.2, 0.8), rng)
                 for _ in range(rng.randint(1, 4))]
        graphs.append(relabelled_union(parts, rng.randint(0, 3), rng))
    seen = set()
    for g in graphs:
        if g.m == 0:
            continue
        col, m, h = matching_based_colouring(g)
        assert (col, m, h) == reference_matching_based_colouring(g)
        seen.add("isolated" if any(g.degree(v) == 0 for v in range(g.n)) else "none isolated")
        seen.add(min(h, 2))
    assert seen == {"isolated", "none isolated", 0, 1, 2}


# SHA-256 of ``(|M|, h)`` and the serialized colouring over
# ``_pinned_fixtures``, recorded before the leftover graph was labelled in a
# single pass: the approximation must colour every edge as it did.
PINNED_APPROX_DIGEST = "65f8a13b80bfce9e6759dea01f824e96c7bc6823c1ecdbe2793b17821a701fc3"


def _pinned_fixtures():
    rng = random.Random(11)
    for _ in range(300):
        # Sparse draws leave isolated vertices and several components.
        n = rng.randint(2, 30)
        g = random_graph(n, rng.uniform(0.5, 3.0) / n, rng)
        if g.m:
            yield g
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        if g.m:
            yield g
    for n, count in ((200, 20), (1000, 4), (4000, 1)):
        for _ in range(count):
            yield sparse_planted_pm_graph(n, rng.uniform(1.5, 4.0), rng)


def test_matching_based_colouring_matches_pinned_digest():
    digest = hashlib.sha256()
    for g in _pinned_fixtures():
        col, m, h = matching_based_colouring(g)
        digest.update(f"{g.n} {g.m} {m.size} {h}\n".encode())
        digest.update(serialize_colouring(col).encode())
    assert digest.hexdigest() == PINNED_APPROX_DIGEST


def test_matched_colour_map_reads_matching_edges():
    g = named("path_4")
    col, m, h = matching_based_colouring(g)
    mclv = matched_colour_map(col, m)
    assert len(mclv) == g.n
    assert mclv[0] == mclv[1] == col.colour[0]
    assert mclv[2] == mclv[3] == col.colour[2]


def test_parse_serialize_round_trip():
    g = named("cycle_4")
    col = EdgeColouring(g, (0, 1, 0, 2))
    text = serialize_colouring(col)
    assert text == "0 1 0\n0 3 1\n1 2 0\n2 3 2\n"
    assert parse_colouring(text, g) == col


def _line_writer(col: EdgeColouring) -> str:
    """The colouring writer as first implemented: one f-string per edge."""
    lines = [f"{u} {v} {col.colour[eid]}" for eid, (u, v) in enumerate(col.graph.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


@given(st.integers(0, 12), st.integers(1, 5), st.randoms(use_true_random=False))
def test_serialize_equals_the_line_writer_and_round_trips(n, palette, rnd):
    g = random_graph(n, 0.4, rnd)
    col = EdgeColouring.from_values(g, [rnd.randrange(palette) for _ in g.edges])
    text = serialize_colouring(col)
    assert text == _line_writer(col)
    assert parse_colouring(text, g) == col


def test_serialize_edgeless_graph_is_empty():
    g = Graph(4, ())
    col = EdgeColouring(g, ())
    assert serialize_colouring(col) == "" == _line_writer(col)
    assert parse_colouring("", g) == col


def test_parse_colouring_canonicalizes_arbitrary_labels():
    g = named("path_3")
    col = parse_colouring("0 1 7\n1 2 7\n", g)
    assert col.colour == (0, 0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1 2 0\n", "expected 'u v colour'"),
        ("0 1 x\n1 2 0\n", "expected 'u v colour'"),
        ("0 2 0\n1 2 0\n", "expected edge 0"),
        ("0 1 -1\n1 2 0\n", "negative colour"),
        ("0 1 0\n", "expected one line per edge"),
        ("0 1 0\n1 2 0\n1 2 0\n", "more than 2 edges"),
    ],
)
def test_parse_colouring_errors(text, message):
    g = named("path_3")
    with pytest.raises(ColouringFormatError, match=message) as exc:
        parse_colouring(text, g)
    assert re.match(r"line \d+: ", str(exc.value))
