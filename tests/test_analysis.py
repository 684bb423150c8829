from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcolour import (
    EdgeColouring,
    Graph,
    Matching,
    optimal_colouring,
    parse_graph,
    serialize_graph,
)
from qcolour.analysis import (
    AnalysisInvariantError,
    ColourPairs,
    DisconnectedColourClassError,
    ImperfectMatchingError,
    InvalidColouringError,
    PairRecord,
    RepetitionPairs,
    RootedForestSeq,
    RootedTree,
    UnanchoredComponentError,
    analyse,
    build_cascading_sequence,
    collect_repetition_pairs,
    decompose,
    matched_colour_map,
    repetition_content,
    tree_repetition_pairs,
    verify_bound_chain,
)
from qcolour.analysis import bounds
from qcolour.analysis.pairs import _interior_clashes
from qcolour.instances import (
    fig5_lower_bound,
    named,
    random_triangle_free_with_pm,
    random_with_perfect_matching,
)
from helpers import (
    bfs_components,
    cascade_shape,
    caterpillar_pair_tree,
    check_pair_properties,
    check_star_against_closure,
    deep_path_instance,
    fig5_copies,
    merge_disjoint_classes,
    order_closure,
    random_pair_tree,
    random_valid_colouring,
    reference_cascade,
    reference_gm_components,
    reference_tree_walk,
    root_climb_path,
)


# ---------------------------------------------------------------- decompose


def test_decompose_rainbow_square():
    g = named("cycle_4")  # edges (0,1) (0,3) (1,2) (2,3)
    m = Matching.from_edge_ids(g, {0, 3})
    col = EdgeColouring(g, (0, 1, 2, 3))
    dec = decompose(g, m, col)
    assert dec.matching_colours == frozenset({0, 3})
    assert dec.non_matching_colours == frozenset({1, 2})
    assert dec.h == 2
    assert dec.k == (1, 1)
    assert dec.component_colours == ((1,), (2,))
    assert matched_colour_map(col, m) == (0, 0, 3, 3)
    assert dec.num_colours == 4


def test_decompose_requires_perfect_matching():
    g = named("path_4")
    m = Matching.from_edge_ids(g, {1})
    col = EdgeColouring(g, (0, 1, 2))
    with pytest.raises(ImperfectMatchingError):
        decompose(g, m, col)


def test_decompose_rejects_invalid_colouring():
    g = named("complete_4")
    m = Matching.from_edge_ids(g, {0, 5})  # (0,1) and (2,3)
    rainbow = EdgeColouring(g, (0, 1, 2, 3, 4, 5))
    with pytest.raises(InvalidColouringError):
        decompose(g, m, rainbow)


def test_decompose_rejects_disconnected_class():
    g = named("path_4")
    m = Matching.from_edge_ids(g, {0, 2})
    col = EdgeColouring(g, (0, 1, 0))  # colour 0 on both end edges
    with pytest.raises(DisconnectedColourClassError):
        decompose(g, m, col)


def test_decompose_names_a_third_colour_a_disconnected_class_hides():
    """Class A is disconnected, and the search along it from edge 01 never
    reaches vertex 3, which sees B, E and A.  The invalid colouring still
    outranks the disconnected class."""
    g = Graph(8, ((0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5), (6, 7)))
    m = Matching.from_edge_ids(g, {0, 2, 5, 6})  # 01, 23, 45, 67
    col = EdgeColouring.from_values(g, ["A", "A", "B", "E", "A", "C", "D"])
    with pytest.raises(InvalidColouringError) as exc:
        decompose(g, m, col)
    assert str(exc.value) == "not a valid 2-colouring: vertex 3 sees colours [0, 1, 2]"


def _random_draws(rng: random.Random, count: int, n_max: int):
    """``count`` random valid colourings with connected classes over pm and
    tf instances of 8..``n_max`` vertices, alternating the two families."""
    for i in range(count):
        gen = random_with_perfect_matching if i % 2 == 0 else random_triangle_free_with_pm
        n = rng.randrange(8, n_max + 1, 2)
        inst = gen(n, 3 / n, rng.randrange(10**6))
        yield inst, random_valid_colouring(inst.graph, rng, moves=8 * inst.graph.m)


def test_decompose_names_a_disconnected_class_of_either_kind():
    # Merging two vertex-disjoint classes keeps the colouring valid and
    # leaves exactly one disconnected class, the merged one.
    rng = random.Random(1919)
    kinds = {True: 0, False: 0}
    for inst, col in _random_draws(rng, 300, 16):
        merge = merge_disjoint_classes(col, inst.matching, rng)
        if merge is None:
            continue
        merged, c, is_matching = merge
        kinds[is_matching] += 1
        with pytest.raises(DisconnectedColourClassError, match=f"^colour class {c} is disconnected$"):
            decompose(inst.graph, inst.matching, merged)
    assert (kinds[True], kinds[False]) == (220, 44)


def test_decompose_files_classes_as_breadth_first_search_does():
    # Reference: the components of G minus M from bfs_components, each
    # non-matching class's vertices from its edges.
    rng = random.Random(1920)
    for inst, col in _random_draws(rng, 200, 16):
        g, m = inst.graph, inst.matching
        dec = decompose(g, m, col)
        matching_colours = {col.colour[eid] for eid in m.edges.members}
        class_vertices: dict[int, set[int]] = {}
        for eid, c in enumerate(col.colour):
            if c not in matching_colours:
                class_vertices.setdefault(c, set()).update(g.edges[eid])
        comps = [comp for comp in bfs_components(g, m.edges.members) if len(comp) > 1]
        assert [comp.vertices for comp in dec.gm_components] == [tuple(sorted(c)) for c in comps]
        expected = tuple(
            tuple(sorted(c for c, vs in class_vertices.items() if vs <= comp)) for comp in comps
        )
        assert dec.component_colours == expected
        assert sum(map(len, expected)) == len(class_vertices)
        assert dec.vertex_class == {v: c for c, vs in class_vertices.items() for v in vs}


def test_decompose_lower_bound_instance():
    inst = fig5_lower_bound()
    dec = decompose(inst.graph, inst.matching, inst.certified_colouring)
    assert len(dec.matching_colours) == 22
    assert len(dec.non_matching_colours) == 36
    assert dec.h == 1
    assert dec.k == (36,)


def test_matched_colour_map_reports_exposed_vertices():
    g = named("path_3")
    m = Matching.from_edge_ids(g, {0})
    col = EdgeColouring(g, (0, 1))
    assert matched_colour_map(col, m) == (0, 0, None)


def test_matching_and_colouring_on_different_graphs_are_rejected():
    a = Graph(4, ((0, 1), (2, 3), (1, 2)))
    b = Graph(4, ((1, 2), (0, 3), (0, 1)))
    six = Graph(6, ((0, 1), (2, 3), (4, 5)))
    col = EdgeColouring(a, (0, 1, 2))
    for m in (Matching.from_edge_ids(b, {0, 1}), Matching.from_edge_ids(six, {2})):
        with pytest.raises(ValueError, match="^colouring and matching refer to different graphs$"):
            matched_colour_map(col, m)
        with pytest.raises(ValueError, match="^colouring and matching refer to different graphs$"):
            repetition_content({1, 2}, m, col)


# ------------------------------------------------------- one-leaf trees (paths)


def _pendant_path(k: int, edge_colours, mate_colours):
    """Path 0-1-..-(k-1) plus a pendant mate for every path vertex."""
    path_edges = [(i, i + 1) for i in range(k - 1)]
    mate_edges = [(i, k + i) for i in range(k)]
    g = Graph(2 * k, tuple(path_edges) + tuple(mate_edges))
    m = Matching.from_edge_ids(g, range(k - 1, 2 * k - 1))
    col = EdgeColouring.from_values(g, list(edge_colours) + list(mate_colours))
    return g, m, col


def _path_tree(g: Graph, path: tuple[int, ...]) -> RootedTree:
    """``path`` as a one-leaf tree rooted at its first vertex."""
    return RootedTree.build(g, path[0], dict(zip(path[1:], path)))


@pytest.mark.parametrize(
    "k, edge_colours, mate_colours, pair",
    [
        (2, ["a"], ["a", "a"], (1, 0)),
        # The middle vertex's matching colour is A, so the first stretch
        # already repeats at vertex 1.
        (3, ["A", "B"], ["A", "A", "B"], (1, 0)),
        # The middle vertex carries B: the repetition is the second stretch.
        (3, ["A", "B"], ["A", "B", "B"], (2, 1)),
    ],
    ids=["single_edge", "stops_at_interior_match", "advances_past_interior"],
)
def test_one_leaf_path_pairs(k, edge_colours, mate_colours, pair):
    g, m, col = _pendant_path(k, edge_colours, mate_colours)
    pairs, ordered = tree_repetition_pairs(_path_tree(g, tuple(range(k))), col, m)
    assert pairs == (pair,)
    check_pair_properties(ordered, pairs, col, m)


def test_one_leaf_path_rejects_a_three_colour_vertex():
    g, m, col = _pendant_path(3, ["A", "C"], ["A", "B", "C"])
    with pytest.raises(ValueError, match="sees three colours"):
        tree_repetition_pairs(_path_tree(g, (0, 1, 2)), col, m)


def test_one_leaf_path_input_validation():
    g, m, col = _pendant_path(3, ["A", "A"], ["A", "A", "A"])
    with pytest.raises(ValueError, match="at least one edge"):
        tree_repetition_pairs(_path_tree(g, (0,)), col, m)
    with pytest.raises(ValueError, match="reached twice"):
        _path_tree(g, (0, 1, 0))
    with pytest.raises(ValueError, match="no edge joins"):
        _path_tree(g, (0, 2))
    bad = EdgeColouring.from_values(g, ["X", "A", "A", "A", "A"])
    with pytest.raises(ValueError, match="root"):
        tree_repetition_pairs(_path_tree(g, (0, 1, 2)), bad, m)
    bad = EdgeColouring.from_values(g, ["A", "X", "A", "A", "A"])
    with pytest.raises(ValueError, match="leaf"):
        tree_repetition_pairs(_path_tree(g, (0, 1, 2)), bad, m)


def test_pairs_reject_a_tree_edge_in_the_matching():
    g, m, col = _pendant_path(3, ["A", "A"], ["A", "A", "A"])
    # Edge (0, 3) is the matching edge of vertex 0.
    with pytest.raises(ValueError, match="matching edge"):
        tree_repetition_pairs(_path_tree(g, (0, 3)), col, m)
    # A matching edge deeper in a larger tree is rejected too.
    tree = RootedTree.build(g, 1, {0: 1, 2: 1, 5: 2})
    with pytest.raises(ValueError, match="tree edge at vertex 5 is a matching edge"):
        tree_repetition_pairs(tree, col, m)


def _two_fault_tree(edges, matched, colours, parent, graph_n=None):
    """A tree over ``edges`` (parent pointers ``parent``, rooted at 0),
    with the edges at positions ``matched`` as the matching and one colour
    value per edge.  ``graph_n`` puts the colouring on a different graph."""
    g = Graph(1 + max(max(e) for e in edges), tuple(edges))
    m = Matching.from_edge_ids(g, matched)
    cg = g if graph_n is None else Graph(graph_n, tuple(edges))
    return RootedTree.build(g, 0, parent), EdgeColouring.from_values(cg, colours), m


# Each tree breaks two preconditions at once; the error names the fault
# the checks reach first, and a rewrite of the checks must name the same.
_TWO_FAULTS = {
    "unmatched_and_bad_leaf": (
        # Vertex 1 has no matching edge; leaf 2 hangs on a B edge but is matched in C.
        ([(0, 1), (1, 2), (0, 3), (2, 4)], {2, 3}, "ABAC", {1: 0, 2: 1}),
        (ValueError, "vertex 1 is not matched"),
    ),
    "bad_root_and_three_colours": (
        # The root edge is X, not the root's A; vertex 1 meets X, B and C.
        ([(0, 1), (1, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7)], {3, 4, 5, 6}, "XBCAXBC",
         {1: 0, 2: 1, 3: 1}),
        (ValueError, "every edge at the root must carry the root's matching colour"),
    ),
    "matching_tree_edge_and_three_colours": (
        # Tree edge (1, 3) is the matching edge of 1 and 3; vertex 1 meets A, B and C.
        ([(0, 1), (1, 2), (1, 3), (0, 4), (2, 5)], {2, 3, 4}, "ABCAB", {1: 0, 2: 1, 3: 1}),
        (ValueError, "tree edge at vertex 3 is a matching edge"),
    ),
    "bad_root_and_bad_leaf": (
        ([(0, 1), (0, 2), (1, 3)], {1, 2}, "XAB", {1: 0}),
        (ValueError, "every edge at the root must carry the root's matching colour"),
    ),
    "two_bad_leaves": (
        ([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)], {2, 3, 4}, "AAABC", {1: 0, 2: 0}),
        (ValueError, "the edge at leaf 1 must carry the leaf's matching colour"),
    ),
    "bad_leaf_and_three_colours": (
        ([(0, 1), (1, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7)], {3, 4, 5, 6}, "ABCAABD",
         {1: 0, 2: 1, 3: 1}),
        (ValueError, "the edge at leaf 3 must carry the leaf's matching colour"),
    ),
    "three_tree_colours_and_an_invalid_vertex": (
        # Vertex 1 meets A, B and E; vertex 2 meets B and C but is matched in D.
        ([(0, 1), (1, 2), (1, 5), (2, 3), (0, 4), (1, 6), (2, 7), (3, 8), (5, 9)],
         {4, 5, 6, 7, 8}, "ABECAADCE", {1: 0, 2: 1, 5: 1, 3: 2}),
        (ValueError, "vertex 1 sees three tree colours"),
    ),
    "one_vertex_and_unmatched": (
        ([(0, 1), (1, 2)], {1}, "AB", {}),
        (ValueError, "tree must contain at least one edge"),
    ),
    "other_graph_and_unmatched": (
        ([(0, 1), (1, 2), (0, 3), (2, 4)], {2, 3}, "ABAC", {1: 0, 2: 1}, 6),
        (ValueError, "tree, colouring and matching refer to different graphs"),
    ),
}


@pytest.mark.parametrize("case", sorted(_TWO_FAULTS))
def test_pairs_name_the_first_of_two_faults(case):
    args, (error, message) = _TWO_FAULTS[case]
    tree, col, m = _two_fault_tree(*args)
    with pytest.raises(Exception) as info:
        tree_repetition_pairs(tree, col, m)
    assert (type(info.value), str(info.value)) == (error, message)


def test_pairs_on_random_paths_give_one_pair():
    rng = random.Random(424)
    for _ in range(120):
        tree, col, m = random_pair_tree(rng, shape="path")
        pairs, ordered = tree_repetition_pairs(tree, col, m)
        assert len(pairs) == 1
        check_pair_properties(ordered, pairs, col, m)


# -------------------------------------------------------- repetition content


def test_repetition_content_counts_distinct_matching_edges():
    g = Graph(4, ((0, 2), (1, 3)))
    m = Matching.from_edge_ids(g, {0, 1})
    col = EdgeColouring(g, (0, 0))
    assert repetition_content({0}, m, col) == 0
    assert repetition_content({0, 2}, m, col) == 0  # same matching edge twice
    assert repetition_content({0, 1}, m, col) == 1
    assert repetition_content({0, 1, 2, 3}, m, col) == 1


def test_repetition_content_rejects_bad_sets():
    g = Graph(5, ((0, 2), (1, 3)))
    m = Matching.from_edge_ids(g, {0, 1})
    col = EdgeColouring(g, (0, 1))
    with pytest.raises(ValueError, match="nonempty"):
        repetition_content(set(), m, col)
    with pytest.raises(ValueError, match="not matched"):
        repetition_content({4}, m, col)
    with pytest.raises(ValueError, match="not monochromatic"):
        repetition_content({0, 1}, m, col)


# -------------------------------------------------------------- tree pairs


def test_pairs_on_monochromatic_star():
    # Root 0 with two leaf children, everything in one colour: each leaf
    # pairs with the root (nearest ancestor sharing the colour).
    tree_edges = [(0, 1), (0, 2)]
    mate_edges = [(0, 3), (1, 4), (2, 5)]
    g = Graph(6, tuple(tree_edges) + tuple(mate_edges))
    m = Matching.from_edge_ids(g, {2, 3, 4})
    col = EdgeColouring(g, (0,) * 5)
    tree = RootedTree.build(g, 0, {1: 0, 2: 0})
    pairs, ordered = tree_repetition_pairs(tree, col, m)
    assert sorted(pairs) == [(1, 0), (2, 0)]
    check_pair_properties(ordered, pairs, col, m)


def test_pairs_validate_root_and_leaf_conditions():
    tree_edges = [(0, 1), (0, 2)]
    mate_edges = [(0, 3), (1, 4), (2, 5)]
    g = Graph(6, tuple(tree_edges) + tuple(mate_edges))
    m = Matching.from_edge_ids(g, {2, 3, 4})
    tree = RootedTree.build(g, 0, {1: 0, 2: 0})
    bad_root = EdgeColouring.from_values(g, ["x", "r", "r", "x", "r"])
    with pytest.raises(ValueError, match="root"):
        tree_repetition_pairs(tree, bad_root, m)
    bad_leaf = EdgeColouring.from_values(g, ["r", "r", "r", "r", "x"])
    with pytest.raises(ValueError, match="leaf"):
        tree_repetition_pairs(tree, bad_leaf, m)


def test_pairs_are_idempotent_under_reordering():
    rng = random.Random(77)
    for _ in range(40):
        tree, col, m = random_pair_tree(rng)
        pairs1, ordered1 = tree_repetition_pairs(tree, col, m)
        pairs2, ordered2 = tree_repetition_pairs(ordered1, col, m)
        assert pairs1 == pairs2
        assert ordered1.postorder == ordered2.postorder


def test_pairs_on_random_trees_satisfy_all_properties():
    rng = random.Random(3141)
    total = 0
    for _ in range(250):
        tree, col, m = random_pair_tree(rng)
        pairs, ordered = tree_repetition_pairs(tree, col, m)
        check_pair_properties(ordered, pairs, col, m)
        total += len(pairs)
    assert total > 400  # the generator must actually exercise the machinery


@pytest.mark.parametrize("spine", [7, 2000])
def test_pairs_on_the_caterpillar_have_a_closed_form(spine):
    # Random trees of at most 13 vertices never build a long spine in one
    # step.  Here vertex 1 sees A above and B below, so one step pairs every
    # B-leaf but the largest with that largest one (the end of the spine),
    # and vertex 1, left a leaf, pairs with the root.
    tree, col, m = caterpillar_pair_tree(spine)
    pairs, ordered = tree_repetition_pairs(tree, col, m)
    largest = 2 * spine + 1
    assert pairs == ((1, 0), *((leaf, largest) for leaf in range(spine + 2, largest)))
    check_pair_properties(ordered, pairs, col, m)


def _assert_paths_match_root_climb(tree):
    for u in tree.postorder:
        for v in tree.postorder:
            assert tree.path(u, v) == root_climb_path(tree, u, v), (u, v)


def test_tree_paths_match_the_root_climb():
    rng = random.Random(2718)
    for shape, size in [("tree", None)] * 60 + [("path", None)] * 20 + [("tree", 60), ("path", 60)]:
        tree, col, m = random_pair_tree(rng, shape, size)
        _assert_paths_match_root_climb(tree)
        # The pairing reorders children, which renumbers the postorder.
        _assert_paths_match_root_climb(tree_repetition_pairs(tree, col, m)[1])
    inst = fig5_lower_bound()
    dec = decompose(inst.graph, inst.matching, inst.certified_colouring)
    for tree in build_cascading_sequence(dec).trees():
        _assert_paths_match_root_climb(tree)


# SHA-256 of (sorted pairs, ordered postorder) over the fixtures below,
# recorded with the earlier elimination loop that re-derived the lowest
# two-coloured vertex after every step; the single walk must reproduce it.
PAIRING_DIGEST = "49c21db6a4a0a68fd4996cf7e153a72e5c98c303c620f5044eae287dccd18809"


def test_pairs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for size in [*range(2, 14), 200, 1000]:
        for shape in ("tree", "path"):
            rng = random.Random(f"{shape}:{size}")
            for _ in range(50 if size < 14 else 3):
                tree, col, m = random_pair_tree(rng, shape, size)
                pairs, ordered = tree_repetition_pairs(tree, col, m)
                assert list(pairs) == sorted(pairs)
                assert ordered is tree or ordered.postorder != tree.postorder
                check_pair_properties(ordered, pairs, col, m)
                digest.update(repr((sorted(pairs), ordered.postorder)).encode())
    assert digest.hexdigest() == PAIRING_DIGEST


# ----------------------------------------------------------------- cascade


def _optimal_decomposition(inst):
    res = optimal_colouring(inst.graph)
    assert res.complete
    return decompose(inst.graph, inst.matching, res.witness)


def test_cascade_leaf_count_identity_on_witnesses():
    rng = random.Random(88)
    for _ in range(30):
        n = rng.choice([4, 6, 8])
        inst = random_with_perfect_matching(n, rng.uniform(0.1, 0.45), rng.randrange(10**6))
        if inst.graph.m > 13:
            continue
        dec = _optimal_decomposition(inst)
        seq = build_cascading_sequence(dec)
        leaves = sum(len(t.leaves()) for t in seq.trees())
        assert leaves == sum(k - 1 for k in dec.k)
        class_vertices = set(dec.vertex_class)
        for t in seq.trees():
            leaves = set(t.leaves())
            for w in t.postorder[:-1]:
                if w not in leaves:
                    assert w not in class_vertices


@functools.cache
def _cascade_corpus() -> tuple:
    """Decompositions the cascade is checked on: fig5 with 1-6 copies,
    deep paths, the corpus of ANALYSIS_DIGEST, and the 300 random valid
    colourings of the anchoring test."""
    rng = random.Random(2121)
    cases = [fig5_copies(k, rng) for k in range(1, 7)]
    cases += [deep_path_instance(depth, rng) for depth in (1, 2, 7, 60, 400)]
    for gen, sizes in (
        (random_with_perfect_matching, (6, 8, 10)),
        (random_triangle_free_with_pm, (8, 10, 12)),
    ):
        for n in sizes:
            for seed in range(20):
                inst = gen(n, 0.3, seed)
                cases.append((inst.graph, inst.matching, optimal_colouring(inst.graph).witness))
    fig5 = fig5_lower_bound()
    cases.append((fig5.graph, fig5.matching, fig5.certified_colouring))
    draws = _random_draws(random.Random(1910), 300, 40)
    cases += [(inst.graph, inst.matching, col) for inst, col in draws]
    return tuple(decompose(*case) for case in cases)


def _shape_or_error(build, dec):
    try:
        return cascade_shape(build(dec))
    except UnanchoredComponentError:
        return "unanchored"


def test_cascade_retires_no_root_that_could_still_grow_a_tree():
    # The reference searches every root of every visited class in every
    # round; retiring dead roots must leave every forest, child order and
    # pair as it was.
    unanchored = 0
    for dec in _cascade_corpus():
        expected = _shape_or_error(reference_cascade, dec)
        assert _shape_or_error(build_cascading_sequence, dec) == expected
        unanchored += expected == "unanchored"
    assert (len(_cascade_corpus()), unanchored) == (432, 129)


# SHA-256 of every tree's root, ordered children and pairs over the corpus
# above, recorded with the cascade that searched every root every round.
CASCADE_DIGEST = "9cf31000788fc96cee7419dcf0e5e96f21ebf54e2a37f226dd4823f2d10c11dd"


def test_cascade_trees_match_the_pinned_digest():
    digest = hashlib.sha256()
    for dec in _cascade_corpus():
        digest.update(repr(_shape_or_error(build_cascading_sequence, dec)).encode())
    assert digest.hexdigest() == CASCADE_DIGEST


def test_decompose_lists_g_minus_m_as_the_union_find_does():
    # The corpus includes the unanchored draws: decompose files them too.
    for dec in _cascade_corpus():
        expected = reference_gm_components(dec.graph, dec.matching, dec.colouring)
        assert (dec.gm_components, dec.component_colours) == expected


def test_cascade_unanchored_component_is_reported():
    # A valid (but far from optimal) colouring can leave a residual
    # component whose edges all reuse matching colours; the cascade has
    # no class to anchor there and must say so.
    g = Graph(4, ((0, 1), (2, 3), (1, 2), (0, 3)))
    m = Matching.from_edge_ids(g, {0, 1})
    col = EdgeColouring(g, (0, 1, 0, 1))
    dec = decompose(g, m, col)
    assert dec.k == (0, 0)
    with pytest.raises(UnanchoredComponentError):
        build_cascading_sequence(dec)


def test_cascade_on_lower_bound_instance():
    inst = fig5_lower_bound()
    dec = decompose(inst.graph, inst.matching, inst.certified_colouring)
    seq = build_cascading_sequence(dec)
    assert sum(len(t.leaves()) for t in seq.trees()) == 35


def test_sequence_order_matches_closure_on_lower_bound_instance():
    inst = fig5_lower_bound()
    dec = decompose(inst.graph, inst.matching, inst.certified_colouring)
    seq = build_cascading_sequence(dec)
    assert len(seq.forests) == 10
    assert len(seq.trees()) == len(seq.tree_pairs) == 35
    assert len({v for t in seq.trees() for v in t.postorder}) == 42
    rp = collect_repetition_pairs(dec, seq)
    # Seven paired colours, all low, so every one must be a star.
    assert check_star_against_closure(seq, rp) == (7, 7)


def test_sequence_order_climbs_from_the_glued_leaf():
    # Round 1: root 0 with leaves 1 and 2 (postorder 1, 2, 0).  Round 2:
    # root 2 with leaf 3.  From 3 the order enters the first tree at 2, so
    # 0 and 2 follow 3 but 1 does not.
    g = Graph(4, ((0, 1), (0, 2), (2, 3)))
    first = RootedTree.build(g, 0, {1: 0, 2: 0})
    second = RootedTree.build(g, 2, {3: 2})
    seq = RootedForestSeq(g, ((first,), (second,)), ((), ()))
    assert first.postorder == (1, 2, 0)
    assert order_closure(seq) == {0: set(), 1: {0, 2}, 2: {0}, 3: {0, 2}}


def test_sequence_rejects_a_root_glued_to_a_later_forest():
    # Trees rooted at 0 and at 1 on one edge: each root is the other's
    # leaf, which would make the order cyclic.
    g = Graph(2, ((0, 1),))
    first = RootedTree.build(g, 0, {1: 0})
    second = RootedTree.build(g, 1, {0: 1})
    with pytest.raises(ValueError, match="earlier forest"):
        RootedForestSeq(g, ((first,), (second,)), ((), ()))


def test_sequence_rejects_a_root_at_an_inner_vertex_of_an_earlier_tree():
    # Vertex 1 is inside the first tree (root 0, child 1, grandchild 2), not a leaf.
    g = Graph(4, ((0, 1), (1, 2), (1, 3)))
    first = RootedTree.build(g, 0, {1: 0, 2: 1})
    second = RootedTree.build(g, 1, {3: 1})
    with pytest.raises(ValueError, match="reuse a leaf of the immediately earlier forest"):
        RootedForestSeq(g, ((first,), (second,)), ((), ()))
    # Rooted at the leaf 2 instead, the same round is accepted.
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    first = RootedTree.build(g, 0, {1: 0, 2: 1})
    RootedForestSeq(g, ((first,), (RootedTree.build(g, 2, {3: 2}),)), ((), ()))


def test_sequence_rejects_a_root_at_a_leaf_two_forests_back():
    g = Graph(3, ((0, 1), (1, 2)))
    first = RootedTree.build(g, 0, {1: 0})
    second = RootedTree.build(g, 1, {2: 1})
    RootedForestSeq(g, ((first,), (second,)), ((), ()))
    with pytest.raises(ValueError, match="reuse a leaf of the immediately earlier forest"):
        RootedForestSeq(g, ((first,), (), (second,)), ((), ()))


def test_rooted_tree_rejects_a_shape_that_is_not_a_tree():
    g = Graph(4, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(ValueError, match="vertex 0 is reached twice"):
        RootedTree(g, 0, {0: (1,), 1: (2,), 2: (0,)})
    with pytest.raises(ValueError, match="vertex 2 is reached twice"):
        RootedTree(g, 0, {0: (1, 2), 1: (2,)})
    with pytest.raises(ValueError, match="no edge joins 3 to its parent 0"):
        RootedTree.build(g, 0, {1: 0, 3: 0})
    with pytest.raises(ValueError, match="cut off from the root"):
        RootedTree.build(g, 0, {1: 2, 2: 1})
    for root in (10**9, -1):
        with pytest.raises(ValueError, match=f"root {root} is not a vertex"):
            RootedTree(g, root, {})


def test_rooted_tree_rejects_a_child_outside_the_graph():
    # Vertex 3 is adjacent to 0, so reading -1 as the last vertex would
    # accept the child -1.
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    for child in (-1, 4, 10**9):
        with pytest.raises(ValueError, match=f"no edge joins {child} to its parent 0"):
            RootedTree(g, 0, {0: (child,)})


def test_rooted_tree_checks_the_edge_ids_it_is_given():
    # The ids come from Graph.edge_id, whichever way the tree is assembled.
    g = Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    assert RootedTree.build(g, 0, {1: 0, 2: 1, 3: 2}).parent_edge == {1: 0, 2: 1, 3: 3}
    assert RootedTree(g, 0, {0: (1,), 1: (2,), 2: (3,)}).parent_edge == {1: 0, 2: 1, 3: 3}
    with pytest.raises(TypeError):
        RootedTree(g, 0, {0: (1,)}, parent_edge={1: 0})
    assert RootedTree.build(g, 1, {0: 1, 2: 1}).reordered({1: 0}).parent_edge == {0: 0, 2: 1}


# Each shape holds two faults.  The walk checks all of a vertex's children
# when it reaches the vertex, before entering any of them, and enters the
# last child first; the first fault it meets is named.
@pytest.mark.parametrize(
    "children, message",
    [
        # Vertex 1 comes back under the first child; 3 is no neighbour of 0.
        ({0: (1, 3), 1: (2,), 2: (1,)}, "no edge joins 3 to its parent 0"),
        # 3 is no neighbour of 1, and 2 none of 0.
        ({0: (1, 2), 1: (3,)}, "no edge joins 2 to its parent 0"),
        # 2 is no neighbour of 0 and comes back under the second child.
        ({0: (2, 1), 1: (2,)}, "no edge joins 2 to its parent 0"),
        # The root comes back under the first child, 4 under the last.
        ({0: (1, 4), 1: (2,), 2: (0,), 4: (4,)}, "vertex 4 is reached twice"),
        # Vertex 1 comes back under itself and among the root's children.
        ({0: (1, 4, 1), 1: (2,), 2: (1,)}, "vertex 1 is reached twice"),
        # 3 is no neighbour of 1, and 6 is cut off from the root.
        ({0: (1,), 6: (5,), 1: (3,)}, "no edge joins 3 to its parent 1"),
        # Vertex 1 is listed twice, and 3 is cut off from the root.
        ({0: (1, 1), 3: (2,)}, "vertex 1 is reached twice"),
    ],
)
def test_rooted_tree_names_the_first_fault_its_walk_meets(children, message):
    g = Graph(7, ((0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6)))
    with pytest.raises(ValueError, match=f"^{message}"):
        RootedTree(g, 0, children)


def _assert_tree_matches_the_walk(tree):
    parent, parent_edge, postorder = reference_tree_walk(tree.graph, tree.root, tree.children)
    assert (tree.parent, tree.parent_edge, tree.postorder) == (parent, parent_edge, postorder)
    assert tree.index == {v: i for i, v in enumerate(postorder)}


def test_rooted_tree_orders_vertices_as_the_index_walk_does():
    # Random trees inside larger graphs, children in random order, each
    # then reordered at random vertices.
    rng = random.Random(3131)
    for _ in range(200):
        n = rng.randrange(1, 60)
        order = list(range(n))
        rng.shuffle(order)
        size = rng.randrange(1, n + 1)
        up = {order[i]: order[rng.randrange(i)] for i in range(1, size)}
        edges = {(min(v, p), max(v, p)) for v, p in up.items()}
        for _ in range(n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        rng.shuffle(edges)
        g = Graph(n, tuple(edges))
        kids: dict[int, list[int]] = {order[0]: []}
        for v, p in up.items():
            kids.setdefault(p, []).append(v)
        for lst in kids.values():
            rng.shuffle(lst)
        tree = RootedTree(g, order[0], {v: tuple(lst) for v, lst in kids.items()})
        _assert_tree_matches_the_walk(tree)
        inner = [v for v, lst in kids.items() if lst]
        last = {v: rng.choice(kids[v]) for v in rng.sample(inner, len(inner) // 2)}
        _assert_tree_matches_the_walk(tree.reordered(last))


def test_reordered_moves_only_a_child_of_its_vertex():
    g = Graph(4, ((0, 1), (1, 2), (1, 3)))
    tree = RootedTree.build(g, 0, {1: 0, 2: 1})
    # 3 is adjacent to 1 in the graph but not in the tree; 0 is the root.
    with pytest.raises(ValueError, match="vertex 3 is not a child of 1"):
        tree.reordered({1: 3})
    with pytest.raises(ValueError, match="vertex 0 is not a child of 3"):
        tree.reordered({3: 0})
    assert tree.reordered({1: 2}) is tree


# Each probe prints the type and message of the exception it raises.  The
# checks they hit are part of the analysis, so `python -O` must not change
# either.
_PROBE_PRELUDE = """
from qcolour import EdgeColouring, Graph, Matching
from qcolour.analysis import RootedForestSeq, RootedTree, tree_repetition_pairs
"""
_PROBES = {
    # Two one-edge trees, each rooted at the other's leaf: a cyclic order.
    "glued_roots": """
g = Graph(2, ((0, 1),))
first, second = RootedTree.build(g, 0, {1: 0}), RootedTree.build(g, 1, {0: 1})
RootedForestSeq(g, ((first,), (second,)), ((), ()))
""",
    # Vertex 1 meets tree edges of colours 0, 1 and 2.
    "three_tree_colours": """
g = Graph(8, ((0, 1), (1, 2), (1, 3), (0, 4), (1, 5), (2, 6), (3, 7)))
m = Matching.from_edge_ids(g, {3, 4, 5, 6})
col = EdgeColouring(g, (0, 1, 2, 0, 3, 1, 2))
tree_repetition_pairs(RootedTree.build(g, 0, {1: 0, 2: 1, 3: 1}), col, m)
""",
}


@pytest.mark.parametrize(
    "probe, expected",
    [
        (
            "glued_roots",
            "ValueError: a root may only reuse a leaf of the immediately earlier forest",
        ),
        ("three_tree_colours", "ValueError: vertex 1 sees three tree colours"),
    ],
)
def test_constructor_checks_are_the_same_under_optimize(probe, expected):
    body = "\n".join("    " + line for line in _PROBES[probe].strip().splitlines())
    code = (
        f"{_PROBE_PRELUDE}try:\n{body}\n"
        "except Exception as exc:\n    print(f'{type(exc).__name__}: {exc}')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, *flags, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert outputs == [expected + "\n"] * 2


# ------------------------------------------------------------------- pairs


def test_collected_pairs_on_lower_bound_instance():
    inst = fig5_lower_bound()
    dec = decompose(inst.graph, inst.matching, inst.certified_colouring)
    seq = build_cascading_sequence(dec)
    rp = collect_repetition_pairs(dec, seq)
    assert len(rp.records) == 35
    assert sum(cp.repetition for cp in rp.colours.values()) == 14
    assert len(rp.colours) == 7
    assert [cp.kind for cp in rp.colours.values()] == ["low_large"] * 7
    for colour, cp in rp.colours.items():
        assert all(r.colour == colour for r in cp.records)
        assert len(cp.support) >= 4
        mates = {dec.matching.mate[v] for v in cp.support}
        assert mates == set(cp.support)  # supports are closed under mates


def test_collected_pairs_must_respect_the_post_order():
    # The bound chain's star test reads only first coordinates, so it needs
    # each pair's first coordinate before its second.  Reversed, fig5's
    # pairs keep distinct first coordinates and monochromatic paths.
    inst = fig5_lower_bound()
    dec = decompose(inst.graph, inst.matching, inst.certified_colouring)
    seq = build_cascading_sequence(dec)
    reversed_pairs = tuple(tuple((v, u) for u, v in pairs) for pairs in seq.tree_pairs)
    backwards = RootedForestSeq(seq.graph, seq.forests, reversed_pairs)
    with pytest.raises(AnalysisInvariantError, match="post-order"):
        collect_repetition_pairs(dec, backwards)


def test_interior_clashes_count_each_record_pair_once():
    recs = [
        PairRecord(0, 9, 0, (0, 5, 6, 9), False),
        PairRecord(1, 8, 1, (1, 5, 6, 8), False),  # meets record 0 at 5 and 6
        PairRecord(2, 7, 0, (2, 6, 7), False),  # meets record 1 at 6, record 0 too
        PairRecord(3, 4, 2, (3, 4), False),  # no interior
    ]
    assert _interior_clashes(recs) == 2  # (0, 1) and (1, 2); 0 and 2 share a colour
    matched = [PairRecord(0, 9, 0, (0, 5, 9), True), PairRecord(1, 8, 1, (1, 5, 8), True)]
    with pytest.raises(AnalysisInvariantError, match="interior-disjoint"):
        _interior_clashes(matched)


def test_collected_pairs_identity_on_witnesses():
    rng = random.Random(909)
    seen_pairs = 0
    for _ in range(25):
        n = rng.choice([6, 8])
        inst = random_with_perfect_matching(n, rng.uniform(0.15, 0.4), rng.randrange(10**6))
        if inst.graph.m > 13:
            continue
        dec = _optimal_decomposition(inst)
        seq = build_cascading_sequence(dec)
        rp = collect_repetition_pairs(dec, seq)
        assert len(rp.records) == len(dec.non_matching_colours) - dec.h
        seen_pairs += len(rp.records)
        mcl = matched_colour_map(dec.colouring, dec.matching)
        for rec in rp.records:
            assert mcl[rec.u] == mcl[rec.v] == rec.colour
    assert seen_pairs > 0


# ------------------------------------------------------------------ bounds


def test_bound_report_on_lower_bound_instance():
    inst = fig5_lower_bound()
    report = analyse(inst.graph, inst.matching, inst.certified_colouring)
    assert report.all_passed
    assert report.triangle_free
    assert report.ratio == Fraction(58, 37)
    assert report.colours == 58
    assert report.matching_size == 36
    assert report.entry("matching_colour_budget").lhs == 22
    assert report.entry("matching_colour_budget").rhs == 22
    assert report.entry("internal_vertex_budget").lhs == 72
    assert report.entry("approximation_8_5").rhs == Fraction(296, 5)
    ids = [e.id for e in report.entries]
    assert len(ids) == len(set(ids)) == 24


def test_bound_report_json_is_deterministic():
    inst = fig5_lower_bound()
    a = analyse(inst.graph, inst.matching, inst.certified_colouring).to_json_dict()
    b = analyse(inst.graph, inst.matching, inst.certified_colouring).to_json_dict()
    assert json.dumps(a) == json.dumps(b)
    assert a["ratio"] == "58/37"
    entry = next(e for e in a["entries"] if e["id"] == "approximation_5_3")
    assert entry == {
        "id": "approximation_5_3",
        "relation": "<=",
        "lhs": "58",
        "rhs": "185/3",
        "passed": True,
    }


# SHA-256 of every report below.  A change to how the analysis stores or
# walks its structures must leave each report byte-identical.
ANALYSIS_DIGEST = "99fb766ec51a3423ab20819fcef32775feec03f2cdda88080b1bc9f7b7baabeb"


def _assert_duplicate_relations_agree(report):
    """Two relations of the chain restate others: c = cm + cn makes
    total_vs_matching_repetition the matching colour budget with cn added to
    both sides, and n_low = n_low_large + n_low_small makes the split pair
    count bound the unsplit one."""
    budget = report.entry("matching_colour_budget")
    total = report.entry("total_vs_matching_repetition")
    assert total.rhs_num - total.lhs_num == budget.rhs_num - budget.lhs_num
    if report.triangle_free:
        pair = report.entry("total_vs_pair_counts")
        split = report.entry("total_vs_pair_counts_split")
        assert (split.lhs_num, split.rhs_num, split.den) == (pair.lhs_num, pair.rhs_num, pair.den)


def _slack(entry):
    """How far ``<=`` or ``>=`` is from tight, in the entry's scaled integers."""
    if entry.relation == ">=":
        return entry.lhs_num - entry.rhs_num
    return entry.rhs_num - entry.lhs_num


def _assert_slack_identities(report):
    """Each derived relation's slack is a sum of earlier slacks plus a term
    in h.  The identities follow by algebra from the relations, with
    pair_count_identity and n = 2|M|.  The third and fifth show what the
    chain proves: 3c <= 5|M| + h, and 5c <= 8|M| + 2h on triangle-free
    input, so the two ratio relations only add slack in h."""
    s = {e.id: _slack(e) for e in report.entries}
    h = report.h
    pair_counts = s["total_vs_pair_counts"]
    assert pair_counts == 2 * s["total_vs_matching_repetition"] + s["repetition_lower_bound"]
    internal = s["total_vs_internal_budget"]
    assert internal == 2 * pair_counts + s["internal_vertex_budget"]
    assert 2 * s["approximation_5_3"] == internal + s["total_vs_low_colours"] + 8 * h
    if report.triangle_free:
        internal_tf = s["total_vs_internal_budget_tf"]
        assert internal_tf == 2 * pair_counts + s["internal_vertex_budget_tf"]
        assert s["approximation_8_5"] == internal_tf + s["total_vs_low_split"] + 6 * h


def test_bound_reports_match_the_pinned_digest():
    digest = hashlib.sha256()
    high_and_delta = 0
    for gen, sizes in (
        (random_with_perfect_matching, (6, 8, 10)),
        (random_triangle_free_with_pm, (8, 10, 12)),
    ):
        for n in sizes:
            for seed in range(20):
                inst = gen(n, 0.3, seed)
                report = analyse(inst.graph, inst.matching, optimal_colouring(inst.graph).witness)
                _assert_duplicate_relations_agree(report)
                _assert_slack_identities(report)
                doc = report.to_json_dict()
                high_and_delta += doc["high_colours"] > 0 and doc["delta"] > 0
                digest.update(f"{gen.__name__} {n} {seed}: {json.dumps(doc)}\n".encode())
    fig5 = fig5_lower_bound()
    report = analyse(fig5.graph, fig5.matching, fig5.certified_colouring)
    _assert_duplicate_relations_agree(report)
    _assert_slack_identities(report)
    doc = report.to_json_dict()
    digest.update(f"fig5: {json.dumps(doc)}\n".encode())
    # The corpus must reach the high-colour branch and its matched pairs.
    assert high_and_delta > 0
    assert digest.hexdigest() == ANALYSIS_DIGEST


def test_analysis_accepts_equal_graphs_from_separate_loads():
    # Every stage asks for equal graphs, not the same graph object.
    a, b, c = fig5_lower_bound(), fig5_lower_bound(), fig5_lower_bound()
    assert a.graph is not b.graph and a.graph is not c.graph
    mixed = analyse(a.graph, b.matching, c.certified_colouring).to_json_dict()
    one = analyse(a.graph, a.matching, a.certified_colouring).to_json_dict()
    assert json.dumps(mixed) == json.dumps(one)
    dec_a = decompose(a.graph, a.matching, a.certified_colouring)
    dec_b = decompose(b.graph, b.matching, b.certified_colouring)
    seq_a = build_cascading_sequence(dec_a)
    assert (
        collect_repetition_pairs(dec_b, seq_a).records
        == collect_repetition_pairs(dec_a, seq_a).records
    )


def test_equal_graphs_are_compared_a_fixed_number_of_times(monkeypatch):
    # A comparison of two separate graphs costs O(m); the analysis makes a
    # fixed number of them, however many trees and colours there are.
    calls = []
    equal = Graph.__eq__

    def counting_eq(self, other):
        if self is not other:
            calls.append(other)
        return equal(self, other)

    monkeypatch.setattr(Graph, "__eq__", counting_eq)
    counts = []
    for k in (1, 4):
        g, m, col = fig5_copies(k, random.Random(k))
        # Graphs parsed from the text share no object with g.
        m2 = Matching.from_edge_ids(parse_graph(serialize_graph(g)), m.edges.members)
        col2 = EdgeColouring(parse_graph(serialize_graph(g)), col.colour)
        calls.clear()
        report = analyse(g, m2, col2)
        assert report.all_passed
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4


def _closed_form_rhs(report) -> dict[str, Fraction]:
    """The right-hand side of every closed-form relation, recomputed in
    Fractions from the report's public counts."""
    m, h, cn, delta = report.matching_size, report.h, report.non_matching_colours, report.delta
    low, large, small = report.low_colours, report.low_large, report.low_small
    half = Fraction(1, 2)
    rhs = {
        "total_vs_pair_counts": cn + m - (cn - h) * half + delta * half + low * half,
        "total_vs_internal_budget": 3 * m * half + Fraction(delta + 2 * low, 4) + h * half,
        "total_vs_low_colours": 2 * m - (delta + 2 * low) * half,
        "approximation_5_3": Fraction(5, 3) * (m + h),
    }
    if report.triangle_free:
        rhs["total_vs_pair_counts_split"] = (
            cn + m - (cn - h) * half + delta * half + (large + small) * half
        )
        rhs["total_vs_internal_budget_tf"] = (
            3 * m * half + Fraction(2 * large + small, 4) + h * half
        )
        rhs["approximation_8_5"] = Fraction(8, 5) * (m + h)
    return rhs


def test_closed_form_relations_match_a_fraction_recomputation():
    fig5 = fig5_lower_bound()
    cases = [(fig5.graph, fig5.matching, fig5.certified_colouring)]
    for gen, sizes in (
        (random_with_perfect_matching, (6, 8, 10)),
        (random_triangle_free_with_pm, (8, 10, 12)),
    ):
        for n in sizes:
            for seed in range(20):
                inst = gen(n, 0.3, seed)
                cases.append((inst.graph, inst.matching, optimal_colouring(inst.graph).witness))
    triangle_free = 0
    for g, m, col in cases:
        report = analyse(g, m, col)
        triangle_free += report.triangle_free
        for eid, rhs in _closed_form_rhs(report).items():
            entry = report.entry(eid)
            assert entry.lhs == report.colours, eid
            assert entry.rhs == rhs, eid
            assert entry.passed == (report.colours <= rhs), eid
    # Both the 5/3 chain alone and the 8/5 tail are reached.
    assert 0 < triangle_free < len(cases)


def test_a_failing_relation_keeps_its_fractional_sides():
    entry = bounds._entry("approximation_5_3", 7, 5, "<=", 3)
    assert not entry.passed
    assert (entry.lhs, entry.rhs) == (Fraction(7, 3), Fraction(5, 3))
    assert entry.to_json_dict() == {
        "id": "approximation_5_3",
        "relation": "<=",
        "lhs": "7/3",
        "rhs": "5/3",
        "passed": False,
    }


def test_low_support_closure_fails_on_a_broken_star_or_mate():
    # fig5's low colours are chains u -> v of one maximum.  Dropping the
    # record at the bottom of one leaves two support vertices that are no
    # first coordinate; dropping its first coordinate too keeps the star
    # but leaves that vertex's mate in the support without it.
    fig5 = fig5_lower_bound()
    dec = decompose(fig5.graph, fig5.matching, fig5.certified_colouring)
    rp = collect_repetition_pairs(dec, build_cascading_sequence(dec))
    colour, cp = next((c, cp) for c, cp in rp.colours.items() if cp.kind != "high")
    seconds = {r.v for r in cp.records}
    bottom = next(r for r in cp.records if r.u not in seconds)
    assert fig5.matching.mate[bottom.u] in cp.support
    records = tuple(r for r in cp.records if r is not bottom)
    for support in (cp.support, cp.support - {bottom.u}):
        broken = ColourPairs(records, support, cp.repetition, cp.kind)
        doctored = RepetitionPairs(rp.records, {**rp.colours, colour: broken}, rp.interior_clashes)
        report = verify_bound_chain(dec, doctored)
        entry = report.entry("low_support_closure")
        assert (entry.lhs, entry.passed) == (1, False)
        assert [e.id for e in report.entries if not e.passed] == ["low_support_closure"]


def test_bound_chain_builds_one_fraction_per_call(monkeypatch):
    # The relations are integer comparisons; only the ratio is a Fraction.
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    fig5 = fig5_lower_bound()
    tri = random_with_perfect_matching(6, 0.5, 6)  # has a triangle
    cases = [
        (fig5.graph, fig5.matching, fig5.certified_colouring),
        (tri.graph, tri.matching, optimal_colouring(tri.graph).witness),
    ]
    monkeypatch.setattr(bounds, "Fraction", counting_fraction)
    for g, m, col in cases:
        dec = decompose(g, m, col)
        rp = collect_repetition_pairs(dec, build_cascading_sequence(dec))
        built.clear()
        report = verify_bound_chain(dec, rp)
        assert len(built) <= 1
        assert report.all_passed


def test_bound_report_without_triangle_refinements():
    # This instance has a triangle, so the refinements are left out.
    inst = random_with_perfect_matching(6, 0.5, 6)
    report = analyse(inst.graph, inst.matching, optimal_colouring(inst.graph).witness)
    assert not report.triangle_free
    ids = {e.id for e in report.entries}
    assert "approximation_5_3" in ids
    assert "approximation_8_5" not in ids
    assert not any(e.id.endswith("_tf") for e in report.entries)
    assert report.all_passed


def test_bound_chain_passes_on_optimal_witnesses():
    rng = random.Random(5555)
    families = [
        (random_with_perfect_matching, Fraction(5, 3)),
        (random_triangle_free_with_pm, Fraction(8, 5)),
    ]
    checked = 0
    for gen, bound in families:
        for _ in range(20):
            inst = gen(rng.choice([4, 6, 8]), rng.uniform(0.15, 0.4), rng.randrange(10**6))
            if inst.graph.m > 13:
                continue
            res = optimal_colouring(inst.graph)
            report = analyse(inst.graph, inst.matching, res.witness)
            assert report.all_passed
            assert Fraction(res.opt, inst.matching.size + inst.h) <= bound
            checked += 1
    assert checked >= 20


def test_random_valid_colourings_are_unanchored_or_pass_every_relation():
    # Every valid colouring has at most OPT colours, so every relation must
    # hold for it: each draw either has a component of G - M carrying only
    # matching colours, or passes the whole chain with no invariant error.
    rng = random.Random(1910)
    analysed = unanchored = paired = 0
    for inst, col in _random_draws(rng, 300, 40):
        try:
            report = analyse(inst.graph, inst.matching, col)
        except UnanchoredComponentError:
            unanchored += 1
            continue
        assert report.all_passed
        _assert_duplicate_relations_agree(report)
        _assert_slack_identities(report)
        analysed += 1
        paired += report.paired_colours > 0
    assert (analysed, unanchored, paired) == (171, 129, 119)


def test_bound_chain_on_algorithm_output_is_degenerate_but_sound():
    # The algorithm's own colouring has no repeated matching colours at
    # all: every class is a single edge or one residual component, so the
    # pair machinery sees k_i = 1 everywhere and the chain still holds.
    inst = random_with_perfect_matching(8, 0.3, 17)
    report = analyse(inst.graph, inst.matching, inst.alg_colouring)
    assert report.all_passed
    assert report.paired_colours == 0
    assert report.repetition_total == 0
