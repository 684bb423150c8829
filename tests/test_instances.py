from __future__ import annotations

from fractions import Fraction

import pytest

from qcolour import (
    is_maximum,
    is_perfect,
    is_triangle_free,
    matching_based_colouring,
    maximum_matching,
    parse_graph,
    serialize_graph,
    validate,
)
from qcolour.instances import (
    CertifiedInstance,
    fig5_lower_bound,
    named,
    random_triangle_free_with_pm,
    random_with_perfect_matching,
)


def test_lower_bound_instance_postconditions():
    inst = fig5_lower_bound()
    g = inst.graph
    assert g.n == 72
    assert g.m == 107
    assert is_perfect(g, inst.matching)
    assert inst.matching.size == 36
    assert is_triangle_free(g)
    assert inst.h == 1
    assert inst.alg_colours == 37
    assert inst.certified_colouring.num_colours == 58
    assert validate(g, inst.certified_colouring, 2).valid
    assert inst.certified_ratio == Fraction(58, 37)
    assert inst.triangle_free
    assert inst.generator == "fig5_lower_bound"
    assert inst.seed is None


def test_lower_bound_loads_identically_each_time():
    a, b = fig5_lower_bound(), fig5_lower_bound()
    assert a.graph == b.graph
    assert a.matching.edges == b.matching.edges
    assert a.certified_colouring == b.certified_colouring


def test_random_pm_is_deterministic_and_reproducible():
    a = random_with_perfect_matching(8, 0.3, 42)
    b = random_with_perfect_matching(8, 0.3, 42)
    assert serialize_graph(a.graph) == serialize_graph(b.graph)
    assert a.graph.n == 8 and a.graph.m == 14  # frozen on first generation
    assert a.alg_colours == 5
    c = random_with_perfect_matching(8, 0.3, 43)
    assert serialize_graph(c.graph) != serialize_graph(a.graph)


def test_random_pm_matching_is_the_leading_edges():
    inst = random_with_perfect_matching(10, 0.25, 7)
    half = inst.graph.n // 2
    assert inst.matching.edges.members == frozenset(range(half))
    assert is_perfect(inst.graph, inst.matching)
    assert is_maximum(inst.graph, inst.matching)
    covered = set()
    for eid in range(half):
        u, v = inst.graph.edges[eid]
        covered |= {u, v}
    assert covered == set(range(inst.graph.n))


def test_random_pm_extremes():
    k2 = random_with_perfect_matching(2, 0.0, 0)
    assert k2.graph.m == 1 and k2.alg_colours == 1
    k6 = random_with_perfect_matching(6, 1.0, 9)
    assert k6.graph.m == 15  # complete graph
    pm_only = random_with_perfect_matching(12, 0.0, 3)
    assert pm_only.graph.m == 6 and pm_only.h == 0


def test_random_pm_rejects_bad_arguments():
    with pytest.raises(ValueError, match="even"):
        random_with_perfect_matching(5, 0.2, 0)
    with pytest.raises(ValueError, match="even"):
        random_with_perfect_matching(0, 0.2, 0)
    with pytest.raises(ValueError, match="lie in"):
        random_with_perfect_matching(4, 1.5, 0)


def test_random_tf_is_bipartite_and_deterministic():
    inst = random_triangle_free_with_pm(10, 0.4, 7)
    assert is_triangle_free(inst.graph)
    assert inst.triangle_free
    assert inst.graph.m == 13 and inst.h == 2  # frozen on first generation
    again = random_triangle_free_with_pm(10, 0.4, 7)
    assert serialize_graph(again.graph) == serialize_graph(inst.graph)


def test_random_tf_complete_bipartite_at_p_one():
    inst = random_triangle_free_with_pm(4, 1.0, 5)
    assert inst.graph.m == 4  # K_{2,2}
    degrees = sorted(inst.graph.degree(v) for v in range(4))
    assert degrees == [2, 2, 2, 2]


def test_random_tf_always_triangle_free():
    for seed in range(30):
        inst = random_triangle_free_with_pm(8, 0.7, seed)
        assert is_triangle_free(inst.graph)
        assert is_perfect(inst.graph, inst.matching)


def test_generated_instances_derive_h_and_triangle_freeness():
    # Sparse pm instances are often triangle-free too; the property must
    # say so rather than name the family.
    seen = set()
    for gen in (random_with_perfect_matching, random_triangle_free_with_pm):
        for n in (4, 6, 8, 10):
            for seed in range(8):
                inst = gen(n, 0.3, seed)
                assert inst.triangle_free == is_triangle_free(inst.graph)
                h = matching_based_colouring(inst.graph)[2]
                assert inst.h == inst.alg_colours - inst.matching.size == h
                seen.add((gen.__name__, inst.triangle_free))
    assert ("random_with_perfect_matching", True) in seen
    assert ("random_with_perfect_matching", False) in seen


def test_certified_instance_rejects_non_maximum_matching():
    from qcolour import Matching

    inst = random_with_perfect_matching(6, 0.5, 11)
    weak = Matching.from_edge_ids(inst.graph, ())
    with pytest.raises(ValueError, match="not maximum"):
        CertifiedInstance(
            graph=inst.graph,
            matching=weak,
            alg_colouring=inst.alg_colouring,
            certified_colouring=None,
            generator="test",
            seed=0,
        )

    # A maximum matching need not be perfect: cycle_5 leaves one vertex
    # exposed, and a single edge of it is not maximum.
    g = named("cycle_5")
    col, m, _h = matching_based_colouring(g)
    assert not is_perfect(g, m)
    odd = CertifiedInstance(g, m, col, None, "test", 0)
    assert odd.h == 2
    with pytest.raises(ValueError, match="not maximum"):
        CertifiedInstance(g, Matching.from_edge_ids(g, {0}), col, None, "test", 0)


def test_named_families():
    assert (named("path_1").n, named("path_1").m) == (1, 0)
    assert (named("path_5").n, named("path_5").m) == (5, 4)
    assert (named("cycle_3").n, named("cycle_3").m) == (3, 3)
    assert (named("complete_5").n, named("complete_5").m) == (5, 10)
    assert (named("star_1").n, named("star_1").m) == (2, 1)
    star = named("star_4")
    assert star.degree(0) == 4 and all(star.degree(v) == 1 for v in range(1, 5))
    pet = named("petersen")
    assert pet.n == 10 and pet.m == 15
    assert all(pet.degree(v) == 3 for v in range(10))
    assert is_triangle_free(pet)
    assert maximum_matching(pet).size == 5


@pytest.mark.parametrize(
    "name",
    ["bogus", "cycle_2", "path_0", "complete_0", "star_0", "path_x", "cycle"],
)
def test_named_rejects_unknown_or_undersized(name):
    with pytest.raises(ValueError):
        named(name)


def test_generated_graphs_round_trip_through_the_parser():
    for inst in [
        fig5_lower_bound(),
        random_with_perfect_matching(8, 0.4, 2),
        random_triangle_free_with_pm(8, 0.4, 2),
    ]:
        assert parse_graph(serialize_graph(inst.graph)) == inst.graph
