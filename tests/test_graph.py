from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from qcolour import (
    EdgeSubset,
    Graph,
    GraphFormatError,
    Matching,
    components,
    is_maximum,
    is_triangle_free,
    matching_based_colouring,
    maximum_matching,
    optimal_colouring,
    parse_graph,
    parse_matching,
    serialize_graph,
    serialize_matching,
    validate,
)
from qcolour.analysis import analyse
from qcolour.graph import InvalidEdgeError, component_labels
from qcolour.instances import fig5_lower_bound, named
from helpers import (
    bfs_components,
    deep_path_instance,
    random_graph,
    relabelled_union,
    union_find_components,
)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, ((0, 0),))


def test_rejects_duplicate_edge_either_orientation():
    with pytest.raises(ValueError, match="duplicates"):
        Graph(3, ((0, 1), (1, 0)))


def test_rejects_endpoint_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, ((0, 2),))


@pytest.mark.parametrize(
    "edge",
    [(0, 1.7), ("2", 1), (True, 2), (0, 1.0), [0, 1], (0, 1, 2), (0,), 5],
    ids=repr,
)
def test_rejects_edge_that_is_not_a_pair_of_ints(edge):
    with pytest.raises(InvalidEdgeError, match="edge 1 is not a pair of ints") as exc:
        Graph(3, ((1, 2), edge))
    assert exc.value.eid == 1


def test_adjacency_lists_carry_edge_ids():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    assert g.degree(1) == 2
    assert dict(g.adjacency[1]) == {0: 0, 2: 1}
    assert g.edge_id(1, 2) == g.edge_id(2, 1) == 1
    assert g.edge_id(0, 3) == g.edge_id(3, 0) == 3
    assert g.edge_id(0, 2) is None
    assert g.edge_id(1, 1) is None


class _UnwritableRow(dict):
    def _refuse(self, *args, **kwargs):
        raise AssertionError("an adjacency row was written")

    __setitem__ = __delitem__ = update = pop = popitem = clear = setdefault = __ior__ = _refuse


def _guard_rows(g: Graph) -> None:
    object.__setattr__(g, "adjacency", tuple(map(_UnwritableRow, g.adjacency)))


def test_no_reader_writes_an_adjacency_row():
    """The rows are plain dicts that the package promises not to write.

    Every reader runs on graphs whose rows refuse writes; afterwards each
    row must still equal, item for item and in order, a fresh graph's.
    """
    fig5 = fig5_lower_bound()
    deep = deep_path_instance(12, random.Random(5))
    small = [named("cycle_5"), named("petersen"), random_graph(9, 0.4, random.Random(3))]
    graphs = [fig5.graph, deep[0], *small]
    for g in graphs:
        _guard_rows(g)

    analyse(fig5.graph, fig5.matching, fig5.certified_colouring)
    analyse(*deep)
    for g in graphs:
        m = maximum_matching(g)
        assert parse_matching(serialize_matching(m), g) == m
        component_labels(g, m.edges)
        components(g)
        col = matching_based_colouring(g)[0]
        assert validate(g, col, 2).valid
        assert all(len(col.vertex_colours(v)) <= 2 for v in range(g.n))
        is_triangle_free(g)
    for g in small:
        # Only a matching that is not perfect makes is_maximum search.
        m = maximum_matching(g)
        assert is_maximum(g, m)
        assert not is_maximum(g, Matching.from_edge_ids(g, sorted(m.edges.members)[1:]))
        optimal_colouring(g)

    for g in graphs:
        fresh = Graph(g.n, g.edges).adjacency
        assert [list(row.items()) for row in g.adjacency] == [list(row.items()) for row in fresh]


def test_edge_id_is_none_for_an_endpoint_outside_the_graph():
    # Vertex 3 is adjacent to 0, so a lookup that read index -1 as the last
    # vertex would find a false edge (-1, 0).
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    for u in (-1, -4, -5, 4, 10**9):
        for v in (0, 3):
            assert g.edge_id(u, v) is None
            assert g.edge_id(v, u) is None
    assert Graph(0, ()).edge_id(0, 0) is None


def test_parse_basic_document_with_comments():
    text = "# a square\n4 4\n0 1\n1 2\n\n2 3\n3 0\n"
    g = parse_graph(text)
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 0))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing 'n m' header"),
        ("3\n", "header must be"),
        ("a b\n", "header must be"),
        ("-1 0\n", "negative count"),
        ("2 1\n0 1\n1 0\n", "more than 1 edges"),
        ("2 1\n0 1 2\n", "edge must be"),
        ("2 1\nx y\n", "edge must be"),
        ("1000001 0\n", "line 1: vertex count 1000001 exceeds"),
        ("2 1\n0 5\n", "out of range"),
        ("2 1\n1 1\n", "self-loop"),
        ("3 2\n0 1\n1 0\n", "duplicate"),
        ("# comment\n2 1\n\n0 5\n", "line 4: .*out of range"),
        ("# comment\n2 1\n\n1 1\n", "line 4: .*self-loop"),
        ("# comment\n3 2\n0 1\n\n1 0\n", "line 5: .*duplicate"),
        ("3 2\n0 1\n", "expected 2 edges, got 1"),
    ],
)
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(GraphFormatError, match=message) as exc:
        parse_graph(text)
    assert re.match(r"line \d+: ", str(exc.value))


@given(st.integers(0, 12), st.randoms(use_true_random=False))
def test_serialize_parse_round_trip(n, rnd):
    g = random_graph(n, 0.4, rnd)
    assert parse_graph(serialize_graph(g)) == g


def test_components_of_two_paths():
    g = Graph(6, ((0, 1), (1, 2), (3, 4)))
    comps = components(g)
    assert [c.vertices for c in comps] == [(0, 1, 2), (3, 4), (5,)]
    assert [c.edge_ids for c in comps] == [(0, 1), (2,), ()]
    assert comps[0].has_edges and not comps[2].has_edges


def test_components_respect_edge_restriction():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    drop = EdgeSubset(g, frozenset({1, 3}))
    comps = components(g, drop)
    assert [c.vertices for c in comps] == [(0, 1), (2, 3)]
    assert [c.edge_ids for c in comps] == [(0,), (2,)]


def test_components_agree_with_bfs_reference():
    # Random graphs, the empty graph, and shuffled disjoint unions with
    # isolated vertices; each against breadth-first search for the vertex
    # sets and against the union-find it replaced, Component for Component.
    rng = random.Random(23)
    cases = []
    for _ in range(300):
        n = rng.randint(0, 30)
        g = random_graph(n, rng.uniform(0.3, 3.0) / max(n, 1), rng)
        dropped = frozenset(eid for eid in range(g.m) if rng.random() < 0.4)
        cases.append((g, EdgeSubset(g, dropped) if rng.random() < 0.8 else None))
    empty = Graph(0, ())
    cases += [(empty, None), (empty, EdgeSubset(empty, frozenset()))]
    for _ in range(40):
        parts = [random_graph(rng.randrange(2, 9), 0.4, rng) for _ in range(rng.randrange(1, 4))]
        g = relabelled_union(parts, rng.randrange(1, 4), rng)
        dropped = frozenset(eid for eid in range(g.m) if rng.random() < 0.3)
        cases.append((g, EdgeSubset(g, dropped) if rng.random() < 0.8 else None))
    for g, drop in cases:
        dropped = frozenset() if drop is None else drop.members
        comps = components(g, drop)
        assert comps == union_find_components(g, drop)
        assert [set(c.vertices) for c in comps] == bfs_components(g, dropped)
        where = {v: i for i, c in enumerate(comps) for v in c.vertices}
        for c in comps:
            assert list(c.vertices) == sorted(c.vertices)
            assert list(c.edge_ids) == sorted(c.edge_ids)
        assert [c.vertices[0] for c in comps] == sorted(c.vertices[0] for c in comps)
        kept = [eid for c in comps for eid in c.edge_ids]
        assert sorted(kept) == [eid for eid in range(g.m) if eid not in dropped]
        for i, c in enumerate(comps):
            for eid in c.edge_ids:
                u, v = g.edges[eid]
                assert where[u] == where[v] == i


def test_component_labels_name_the_least_vertex_of_each_component():
    # Reference: breadth-first search of g minus the dropped edges, each
    # component labelled by its least vertex.  Each graph drops its maximum
    # matching M, a random edge subset that need not be a matching, and
    # nothing.  Isolated vertices label themselves, and a graph that is its
    # own matching leaves G minus M without edges (h = 0).
    rng = random.Random(2424)
    graphs = [Graph(0, ()), Graph(3, ()), Graph(4, ((0, 1), (2, 3))), named("cycle_4")]
    for _ in range(150):
        n = rng.randrange(1, 25)
        graphs.append(random_graph(n, rng.choice([0.05, 0.15, 0.4]), rng))
    for _ in range(30):
        parts = [random_graph(rng.randrange(2, 9), 0.4, rng) for _ in range(rng.randrange(1, 4))]
        graphs.append(relabelled_union(parts, rng.randrange(0, 4), rng))
    without_edges = not_matchings = 0
    for g in graphs:
        m = maximum_matching(g)
        subset = EdgeSubset(g, frozenset(eid for eid in range(g.m) if rng.random() < 0.5))
        not_matchings += len(subset) > m.size
        for drop in (m.edges, subset, None):
            dropped = frozenset() if drop is None else drop.members
            expected = [-1] * g.n
            comps = bfs_components(g, dropped)
            for comp in comps:
                for v in comp:
                    expected[v] = min(comp)
            assert component_labels(g, drop) == expected
        without_edges += g.m > 0 and len(bfs_components(g, m.edges.members)) == g.n
    assert without_edges > 0
    assert not_matchings > 0


def test_components_rejects_subset_of_another_graph():
    g = Graph(3, ((0, 1), (1, 2)))
    other = Graph(3, ((0, 1),))
    for search in (components, component_labels):
        with pytest.raises(ValueError, match="^edge subset belongs to a different graph$"):
            search(g, EdgeSubset(other, frozenset({0})))


def test_edge_subset_membership_and_order():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    s = EdgeSubset(g, frozenset({0}))
    assert 0 in s and 1 not in s
    assert list(EdgeSubset(g, frozenset({2, 0}))) == [0, 2]


@pytest.mark.parametrize("ids, bad", [({-1}, -1), ({3}, 3), ({0, 2, 3}, 3), ({-1, 1}, -1)])
def test_edge_subset_rejects_out_of_range_ids(ids, bad):
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match=f"^edge id {bad} out of range$"):
        EdgeSubset(g, ids)
    assert EdgeSubset(g, set()).members == frozenset()


@pytest.mark.parametrize("ids, bad", [({1.0}, "1.0"), ({True}, "True"), ({"1"}, "'1'"), ({0, 2.0}, "2.0")])
def test_edge_subset_rejects_ids_that_are_not_ints(ids, bad):
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match=f"^edge id {bad} is not an int$"):
        EdgeSubset(g, ids)
    with pytest.raises(ValueError, match=f"^edge id {bad} is not an int$"):
        Matching.from_edge_ids(g, ids)


def test_triangle_detection():
    assert not is_triangle_free(Graph(3, ((0, 1), (1, 2), (0, 2))))
    assert is_triangle_free(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
    assert is_triangle_free(Graph(0, ()))


def test_triangle_free_agrees_with_a_scan_of_every_triple():
    rng = random.Random(11)
    answers = set()
    for _ in range(300):
        n = rng.randint(0, 9)
        g = random_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
        adjacent = {frozenset(edge) for edge in g.edges}
        expected = not any(
            {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} <= adjacent
            for a, b, c in itertools.combinations(range(n), 3)
        )
        assert is_triangle_free(g) is expected, g
        answers.add(expected)
    assert answers == {True, False}


def _has_triangle_by_triples(g: Graph) -> bool:
    adjacent = {frozenset(edge) for edge in g.edges}
    return any(
        {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} <= adjacent
        for a, b, c in itertools.combinations(range(g.n), 3)
    )


@pytest.mark.parametrize(
    "g, free",
    [
        # A triangle with a pendant at each corner and a path hung off one.
        (Graph(8, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5), (5, 6), (6, 7))), False),
        (Graph(3, ((0, 1), (1, 2), (2, 0))), False),
        (Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4))), True),  # a star
        (Graph(2, ((1, 0),)), True),
        (Graph(4, ((3, 2),)), True),  # one edge and two isolated vertices
    ],
)
def test_triangle_free_with_pendant_and_isolated_vertices(g, free):
    assert is_triangle_free(g) is free is not _has_triangle_by_triples(g)


@given(st.integers(0, 2**32))
def test_triangle_free_agrees_with_the_triples_on_graphs_with_pendants(seed):
    """A random core with pendant paths hung off it, relabelled: vertices of
    degree 1 sit next to vertices on and off triangles."""
    rng = random.Random(seed)
    core = random_graph(rng.randint(0, 7), rng.choice((0.3, 0.5, 0.8)), rng)
    n, edges = core.n, list(core.edges)
    for _ in range(rng.randint(0, 6)):
        if n and rng.random() < 0.8:
            edges.append((rng.randrange(n), n))  # hang a pendant off any vertex
        n += 1  # or leave the new vertex isolated
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(edges)
    g = Graph(n, tuple((label[u], label[v]) for u, v in edges))
    assert is_triangle_free(g) is not _has_triangle_by_triples(g)


def test_triangle_free_on_random_bipartite():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 9)
        left = set(range(n // 2))
        edges = tuple(
            (u, v)
            for u in sorted(left)
            for v in range(n // 2, n)
            if rng.random() < 0.5
        )
        assert is_triangle_free(Graph(n, edges))
