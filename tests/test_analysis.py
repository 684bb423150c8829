from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from qcolour import (
    EdgeColouring,
    Graph,
    Matching,
    optimal_colouring,
)
from qcolour.analysis import (
    DisconnectedColourClassError,
    ImperfectMatchingError,
    InvalidColouringError,
    PairRecord,
    RootedForestSeq,
    RootedTree,
    UnanchoredComponentError,
    analyse,
    build_cascading_sequence,
    collect_repetition_pairs,
    decompose,
    matched_colour_map,
    path_repetition,
    repetition_content,
    tree_repetition_pairs,
    verify_bound_chain,
)
from qcolour.analysis.pairs import _interior_clashes
from qcolour.instances import (
    fig5_lower_bound,
    named,
    random_triangle_free_with_pm,
    random_with_perfect_matching,
)
from helpers import check_order_against_closure, check_pair_properties, random_pair_tree


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


# ---------------------------------------------------------- path repetition


def _pendant_path(k: int, edge_colours, mate_colours):
    """Path 0-1-..-(k-1) plus a pendant mate for every path vertex."""
    path_edges = [(i, i + 1) for i in range(k - 1)]
    mate_edges = [(i, k + i) for i in range(k)]
    g = Graph(2 * k, tuple(path_edges) + tuple(mate_edges))
    m = Matching.from_edge_ids(g, range(k - 1, 2 * k - 1))
    col = EdgeColouring.from_values(g, list(edge_colours) + list(mate_colours))
    return g, m, col


def test_path_repetition_single_edge():
    _, m, col = _pendant_path(2, ["a"], ["a", "a"])
    assert path_repetition((0, 1), col, m) == (0, 1)


def test_path_repetition_stops_at_interior_match():
    # Edge colours A,B; the middle vertex's matching colour is A, so the
    # very first stretch already repeats at position 1.
    _, m, col = _pendant_path(3, ["A", "B"], ["A", "A", "B"])
    assert path_repetition((0, 1, 2), col, m) == (0, 1)


def test_path_repetition_advances_past_interior():
    # Same shape but the middle vertex carries B: the repetition is the
    # second stretch, between positions 1 and 2.
    _, m, col = _pendant_path(3, ["A", "B"], ["A", "B", "B"])
    assert path_repetition((0, 1, 2), col, m) == (1, 2)


def test_path_repetition_detects_three_colour_vertex():
    _, m, col = _pendant_path(3, ["A", "C"], ["A", "B", "C"])
    with pytest.raises(ValueError, match="sees three colours"):
        path_repetition((0, 1, 2), col, m)


def test_path_repetition_input_validation():
    g, m, col = _pendant_path(3, ["A", "A"], ["A", "A", "A"])
    with pytest.raises(ValueError, match="at least one edge"):
        path_repetition((0,), col, m)
    with pytest.raises(ValueError, match="distinct"):
        path_repetition((0, 1, 0), col, m)
    with pytest.raises(ValueError, match="no edge between"):
        path_repetition((0, 2), col, m)
    with pytest.raises(ValueError, match="may not use matching edges"):
        path_repetition((0, 3), col, m)
    bad = EdgeColouring.from_values(g, ["X", "A", "A", "A", "A"])
    with pytest.raises(ValueError, match="first edge"):
        path_repetition((0, 1, 2), bad, m)
    bad = EdgeColouring.from_values(g, ["A", "X", "A", "A", "A"])
    with pytest.raises(ValueError, match="last edge"):
        path_repetition((0, 1, 2), bad, m)


def test_path_repetition_on_random_fixtures():
    rng = random.Random(424)
    mcl_of = None
    for _ in range(120):
        tree, col, m = random_pair_tree(rng, shape="path")
        seq = list(tree.postorder)  # path shape: leaf .. root
        path = tuple(reversed(seq))
        i, j = path_repetition(path, col, m)
        mcl_of = matched_colour_map(col, m)
        assert 0 <= i < j < len(path)
        assert mcl_of[path[i]] == mcl_of[path[j]]
        for a, b in zip(path[i:j], path[i + 1 : j + 1]):
            eid = next(e for y, e in col.graph.adjacency[a] if y == b)
            assert col.colour[eid] == mcl_of[path[i]]
    assert mcl_of is not None


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
    tree = RootedTree.build(g, 0, {1: 0, 2: 0}, {1: 0, 2: 1})
    pairs, ordered = tree_repetition_pairs(tree, col, m)
    assert sorted(pairs) == [(1, 0), (2, 0)]
    check_pair_properties(ordered, pairs, col, m)


def test_pairs_validate_root_and_leaf_conditions():
    tree_edges = [(0, 1), (0, 2)]
    mate_edges = [(0, 3), (1, 4), (2, 5)]
    g = Graph(6, tuple(tree_edges) + tuple(mate_edges))
    m = Matching.from_edge_ids(g, {2, 3, 4})
    tree = RootedTree.build(g, 0, {1: 0, 2: 0}, {1: 0, 2: 1})
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
        class_vertices = set()
        for c in dec.non_matching_colours:
            class_vertices |= dec.colouring.colour_class(c).vertices()
        for t in seq.trees():
            leaves = set(t.leaves())
            for w in t.postorder[:-1]:
                if w not in leaves:
                    assert w not in class_vertices


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
    # All 72^2 vertex pairs, the 42^2 pairs of tree vertices among them.
    assert check_order_against_closure(seq) == 72 * 72


def test_sequence_order_climbs_from_the_glued_leaf():
    # Round 1: root 0 with leaves 1 and 2 (postorder 1, 2, 0).  Round 2:
    # root 2 with leaf 3.  From 3 the climb enters the first tree at 2, so
    # 0 and 2 follow 3 but 1 does not.
    g = Graph(4, ((0, 1), (0, 2), (2, 3)))
    first = RootedTree.build(g, 0, {1: 0, 2: 0}, {1: 0, 2: 1})
    second = RootedTree.build(g, 2, {3: 2}, {3: 2})
    seq = RootedForestSeq(g, ((first,), (second,)), ((), ()))
    assert first.postorder == (1, 2, 0)
    assert seq.preceq(3, 0) and seq.preceq(3, 2)
    assert not seq.preceq(3, 1) and not seq.preceq(2, 3)
    assert check_order_against_closure(seq) == 16


def test_sequence_rejects_a_root_glued_to_a_later_forest():
    # Trees rooted at 0 and at 1 on one edge: each root is the other's
    # leaf, which would make the order cyclic.
    g = Graph(2, ((0, 1),))
    first = RootedTree.build(g, 0, {1: 0}, {1: 0})
    second = RootedTree.build(g, 1, {0: 1}, {0: 0})
    with pytest.raises(AssertionError, match="earlier forest"):
        RootedForestSeq(g, ((first,), (second,)), ((), ()))


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


def test_interior_clashes_count_each_record_pair_once():
    recs = [
        PairRecord(0, 9, 0, (0, 5, 6, 9), False),
        PairRecord(1, 8, 1, (1, 5, 6, 8), False),  # meets record 0 at 5 and 6
        PairRecord(2, 7, 0, (2, 6, 7), False),  # meets record 1 at 6, record 0 too
        PairRecord(3, 4, 2, (3, 4), False),  # no interior
    ]
    assert _interior_clashes(recs) == 2  # (0, 1) and (1, 2); 0 and 2 share a colour
    matched = [PairRecord(0, 9, 0, (0, 5, 9), True), PairRecord(1, 8, 1, (1, 5, 8), True)]
    with pytest.raises(AssertionError, match="interior-disjoint"):
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
ANALYSIS_DIGEST = "81381a7434e1a1e1fad895f55df63b6439a36a5102c92b392849f20afe3597f5"


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
                doc = analyse(
                    inst.graph, inst.matching, optimal_colouring(inst.graph).witness
                ).to_json_dict()
                high_and_delta += doc["high_colours"] > 0 and doc["delta"] > 0
                digest.update(f"{gen.__name__} {n} {seed}: {json.dumps(doc)}\n".encode())
    fig5 = fig5_lower_bound()
    doc = analyse(fig5.graph, fig5.matching, fig5.certified_colouring).to_json_dict()
    digest.update(f"fig5: {json.dumps(doc)}\n".encode())
    # The corpus must reach the high-colour branch and its matched pairs.
    assert high_and_delta > 0
    assert digest.hexdigest() == ANALYSIS_DIGEST


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


def test_bound_chain_on_algorithm_output_is_degenerate_but_sound():
    # The algorithm's own colouring has no repeated matching colours at
    # all: every class is a single edge or one residual component, so the
    # pair machinery sees k_i = 1 everywhere and the chain still holds.
    inst = random_with_perfect_matching(8, 0.3, 17)
    report = analyse(inst.graph, inst.matching, inst.alg_colouring)
    assert report.all_passed
    assert report.paired_colours == 0
    assert report.repetition_total == 0
