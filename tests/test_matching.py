from __future__ import annotations

import hashlib
import random
import re

import pytest

from qcolour import (
    Graph,
    Matching,
    MatchingFormatError,
    is_maximum,
    is_perfect,
    maximum_matching,
    parse_matching,
    serialize_matching,
)
from qcolour.instances import named
from helpers import (
    brute_force_matching_size,
    connected_graphs_up_to,
    random_graph,
    sparse_planted_pm_graph,
)


def test_matching_rejects_shared_vertex():
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="shares a vertex"):
        Matching.from_edge_ids(g, {0, 1})


def test_mate_view_matches_edge_set():
    g = Graph(4, ((0, 1), (2, 3), (1, 2)))
    m = Matching.from_edge_ids(g, {0, 1})
    assert m.mate == (1, 0, 3, 2)
    assert m.size == 2
    assert m.mate_edge[2] == 1
    assert is_perfect(g, m)


def test_exposed_vertices_have_no_mate():
    g = Graph(3, ((0, 1), (1, 2)))
    m = Matching.from_edge_ids(g, {0})
    assert m.mate[2] is None
    assert m.mate_edge[2] is None
    assert not is_perfect(g, m)


def test_matched_edge_is_the_edge_to_the_mate():
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng.randint(0, 12), rng.choice((0.2, 0.4)), rng)
        found = maximum_matching(g)
        text = "".join(f"{g.edges[eid][1]} {g.edges[eid][0]}\n" for eid in found.edges)
        for m in (found, parse_matching(text, g), parse_matching("# reread\n" + text, g)):
            assert m.edges == found.edges
            for v in range(g.n):
                mate = m.mate[v]
                expected = None if mate is None else g.edge_id(v, mate)
                assert m.mate_edge[v] == expected


def test_maximum_on_even_cycle_is_perfect():
    m = maximum_matching(named("cycle_6"))
    assert m.size == 3
    assert all(x is not None for x in m.mate)


def test_maximum_on_odd_cycle_leaves_one_exposed():
    m = maximum_matching(named("cycle_5"))
    assert m.size == 2


def test_maximum_on_petersen():
    # Petersen has a perfect matching; greedy alone stalls on some orders.
    m = maximum_matching(named("petersen"))
    assert m.size == 5


_TWO_TRIANGLES_BRIDGED = (
    (0, 1), (1, 2), (0, 2),  # left triangle
    (5, 6), (6, 7), (5, 7),  # right triangle
    (2, 3), (3, 4), (4, 5),  # bridge
)


def test_blossom_case_two_triangles_joined_by_path():
    # Two triangles bridged by an even path: requires shrinking both blossoms.
    g = Graph(8, _TWO_TRIANGLES_BRIDGED)
    m = maximum_matching(g)
    assert m.size == brute_force_matching_size(g) == 4
    assert is_maximum(g, m)


def test_greedy_seed_keeps_disjoint_prefix():
    # When the first edges are pairwise disjoint and form a maximum matching,
    # the solver returns exactly those edges: generators depend on this.
    g = Graph(6, ((0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (0, 5)))
    m = maximum_matching(g)
    assert m.edges.members == frozenset({0, 1, 2})


def test_maximum_agrees_with_brute_force_on_random_graphs():
    rng = random.Random(271)
    for _ in range(120):
        g = random_graph(rng.randint(0, 9), rng.uniform(0.1, 0.8), rng)
        m = maximum_matching(g)
        assert m.size == brute_force_matching_size(g)
        assert is_maximum(g, m)


# SHA-256 of the sorted matching edge ids over ``_pinned_fixtures``, recorded
# before the search state was made incremental: the output must not change.
PINNED_MATCHING_DIGEST = "3dfa14a6764be735a5f2cc30e0815a7b55d84cd516a3ad0c14c72ab6848bde5f"


def _pinned_fixtures():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(0, 30)
        yield random_graph(n, rng.uniform(0.3, 0.9), rng)
        yield random_graph(n, rng.uniform(0.5, 3.0) / max(n, 1), rng)
    for n, count in ((200, 30), (1000, 5), (4000, 1)):
        for _ in range(count):
            yield sparse_planted_pm_graph(n, rng.uniform(1.5, 4.0), rng)


def test_maximum_matching_matches_pinned_digest():
    # Blossom vertices must be enqueued in ascending id order; any other
    # order changes which augmenting path is found first.
    digest = hashlib.sha256()
    for g in _pinned_fixtures():
        ids = sorted(maximum_matching(g).edges.members)
        digest.update(f"{g.n} {g.m}: {ids}\n".encode())
    assert digest.hexdigest() == PINNED_MATCHING_DIGEST


def test_adjacency_rows_list_each_vertex_edges_in_id_order():
    # The blossom search scans the rows in order, so the pinned digest
    # rests on this order as much as on the search.
    for g in [*_pinned_fixtures(), *connected_graphs_up_to(5)]:
        reference: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for eid, (u, v) in enumerate(g.edges):
            reference[u].append((v, eid))
            reference[v].append((u, eid))
            assert g.edge_id(u, v) == g.edge_id(v, u) == eid
        for v, row in enumerate(g.adjacency):
            assert list(row.items()) == reference[v]
            assert g.degree(v) == len(row)
        assert len(g.adjacency) == g.n


def test_maximum_matching_is_perfect_on_a_large_planted_graph():
    # Quadratic bookkeeping takes seconds here; near-linear takes a fraction.
    g = sparse_planted_pm_graph(16_000, 3.0, random.Random(16))
    m = maximum_matching(g)
    assert m.size == g.n // 2
    assert is_perfect(g, m)


def test_maximum_matching_size_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(300)
    for _ in range(6):
        g = random_graph(300, rng.uniform(1.5, 3.0) / 300, rng)
        m = maximum_matching(g)
        assert not is_perfect(g, m)
        other = nx.Graph()
        other.add_nodes_from(range(g.n))
        other.add_edges_from(g.edges)
        assert m.size == len(nx.max_weight_matching(other, maxcardinality=True))


def _greedy_matching(g: Graph, rng: random.Random) -> Matching:
    """A maximal matching, greedy over the edges in a shuffled order."""
    order = list(range(g.m))
    rng.shuffle(order)
    covered: set[int] = set()
    ids = []
    for eid in order:
        u, v = g.edges[eid]
        if u not in covered and v not in covered:
            covered |= {u, v}
            ids.append(eid)
    return Matching.from_edge_ids(g, ids)


def test_is_maximum_rejects_augmentable_matching():
    rng = random.Random(1045)
    outcomes = set()
    for _ in range(400):
        g = random_graph(rng.randint(0, 10), rng.uniform(0.1, 0.8), rng)
        m = _greedy_matching(g, rng)
        verdict = is_maximum(g, m)
        assert verdict == (m.size == brute_force_matching_size(g))
        outcomes.add(verdict)
    assert outcomes == {True, False}


_TWO_LONG_WAY_TRIANGLES = (
    (0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (3, 6),
    (5, 6), (6, 7), (5, 7), (7, 8), (8, 9),
)


@pytest.mark.parametrize(
    "edges, ids, maximum",
    [
        # path_4 0-1-2-3: the middle edge alone is not maximum.
        (((0, 1), (1, 2), (2, 3)), {1}, False),
        # Two triangles bridged by 2-3-4-5, with 3-4 in M and the other two
        # bridge edges out: the search from 2 shrinks the left triangle
        # before it reaches the augmenting path 2-3=4-5=6-7.
        (_TWO_TRIANGLES_BRIDGED, {0, 3, 7}, False),
        # The only augmenting path 0-1=2-4=3-6=5-7=8-9 crosses the triangles
        # 2-3=4 and 7-6=5 the long way.  A search from either end labels
        # the triangle's exit vertex (3 or 6) odd first, so only shrinking
        # the triangle finds the path.
        (_TWO_LONG_WAY_TRIANGLES, {1, 4, 6, 9}, False),
        (_TWO_LONG_WAY_TRIANGLES, {0, 3, 5, 8, 10}, True),
    ],
)
def test_is_maximum_on_blossom_cases(edges, ids, maximum):
    g = Graph(max(max(e) for e in edges) + 1, edges)
    m = Matching.from_edge_ids(g, ids)
    assert (m.size == brute_force_matching_size(g)) == maximum
    assert is_maximum(g, m) == maximum


def test_is_maximum_on_an_imperfect_61_vertex_matching():
    # One vertex stays exposed: trying every alternating path from it takes
    # about 93 s on this graph; the blossom search takes well under 1 ms.
    g = random_graph(61, 5 / 61, random.Random(6101))
    m = maximum_matching(g)
    assert not is_perfect(g, m)
    assert is_maximum(g, m)
    weaker = set(m.edges.members)
    weaker.remove(min(weaker))
    assert not is_maximum(g, Matching.from_edge_ids(g, weaker))


def test_parse_and_serialize_round_trip():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    m = Matching.from_edge_ids(g, {0, 2})
    text = serialize_matching(m)
    assert text == "0 1\n2 3\n"
    again = parse_matching(text, g)
    assert again.edges == m.edges


def test_parse_matching_accepts_comments_and_reversed_endpoints():
    g = Graph(4, ((0, 1), (2, 3)))
    m = parse_matching("# both edges\n1 0\n3 2\n", g)
    assert m.size == 2


def test_serialize_empty_matching_is_empty_document():
    g = Graph(2, ((0, 1),))
    assert serialize_matching(Matching.from_edge_ids(g, ())) == ""
    assert parse_matching("", g).size == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("0\n", "must be 'u v'"),
        ("a b\n", "must be 'u v'"),
        ("0 3\n", "not a graph edge"),
        ("0 1\n1 0\n", "listed twice"),
        ("0 1\n1 2\n", "shares a vertex"),
        ("# comment\n0 1\n\n2 1\n", "line 4: .*shares a vertex"),
    ],
)
def test_parse_matching_errors(text, message):
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(MatchingFormatError, match=message) as exc:
        parse_matching(text, g)
    assert re.match(r"line \d+: ", str(exc.value))


@pytest.mark.parametrize("text", ["0 9\n", "9 0\n", "-1 0\n", "0 -1\n"])
def test_parse_matching_rejects_a_vertex_outside_the_graph(text):
    # On the 4-cycle, vertex 3 is adjacent to 0: reading -1 as the last
    # vertex would accept "-1 0" as an edge.
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    u, v = text.split()
    with pytest.raises(MatchingFormatError, match=rf"^line 1: \({u}, {v}\) is not a graph edge$"):
        parse_matching(text, g)
