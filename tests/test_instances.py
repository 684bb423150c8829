from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest

from qcolour import (
    is_maximum,
    is_perfect,
    is_triangle_free,
    matching_based_colouring,
    maximum_matching,
    parse_graph,
    serialize_colouring,
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


FAMILIES = (random_with_perfect_matching, random_triangle_free_with_pm)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "n, p, message",
    [
        (5, 0.3, "n must be even and at least 2, got 5"),
        (0, 0.3, "n must be even and at least 2, got 0"),
        (4, -0.1, "extra_edge_prob must lie in [0, 1], got -0.1"),
        (4, 1.1, "extra_edge_prob must lie in [0, 1], got 1.1"),
        (4, math.nan, "extra_edge_prob must lie in [0, 1], got nan"),
    ],
)
def test_random_families_name_the_bad_argument(family, n, p, message):
    with pytest.raises(ValueError) as info:
        family(n, p, 0)
    assert str(info.value) == message


# SHA-256 of every ``(n, edges)`` both families generate over the grid of
# test_random_families_match_pinned_digest, recorded before the two families
# shared one body: the same arguments must give the same graph, edge for edge.
PINNED_FAMILY_DIGEST = "1d6932a4efbb83607cca5d59089c4736aa0ca32e244023e2c3624dff3aaca294"


def test_random_families_match_pinned_digest():
    digest = hashlib.sha256()
    for family in FAMILIES:
        for n in (2, 4, 6, 8, 10, 12):
            for p in (0.0, 0.2, 0.5, 1.0):
                for seed in range(5):
                    g = family(n, p, seed).graph
                    digest.update(f"{family.__name__} {n} {p} {seed}: {g.n} {g.edges}\n".encode())
    assert digest.hexdigest() == PINNED_FAMILY_DIGEST


def _fig5_documents():
    names = ("fig5.graph", "fig5.matching", "fig5_58.colouring")
    load = fig5_lower_bound.__globals__["_load_data"]
    return {name: load(name) for name in names}


def _swap_lines(text, old, new):
    lines = text.splitlines()
    for before, after in zip(old, new):
        lines[lines.index(before)] = after
    return "\n".join(lines) + "\n"


def _drop_edge(docs, eid):
    """Edge ``eid`` removed from the graph and from the certificate."""
    graph = docs["fig5.graph"].splitlines()
    n, m = map(int, graph[0].split())
    del graph[eid + 1]
    graph[0] = f"{n} {m - 1}"
    cert = docs["fig5_58.colouring"].splitlines()
    del cert[eid]
    return {
        **docs,
        "fig5.graph": "\n".join(graph) + "\n",
        "fig5_58.colouring": "\n".join(cert) + "\n",
    }


def _fig5_faults():
    docs = _fig5_documents()
    alg = matching_based_colouring(fig5_lower_bound().graph)[0]
    return [
        (
            # Two isolated vertices more: the documents still parse.
            {**docs, "fig5.graph": docs["fig5.graph"].replace("72 107", "74 107", 1)},
            "lower-bound instance must have 72 vertices, got 74",
        ),
        (
            {**docs, "fig5.matching": "".join(docs["fig5.matching"].splitlines(True)[:-1])},
            "lower-bound matching must be perfect",
        ),
        (
            # 1-4, 2-5 become 1-2, 4-5 along an alternating 4-cycle: still perfect.
            {**docs, "fig5.matching": _swap_lines(docs["fig5.matching"], ["1 4", "2 5"], ["1 2", "4 5"])},
            "checked-in matching is not the computed maximum matching",
        ),
        (
            # Edge 36, the first edge outside the matching, is a bridge of G - M.
            _drop_edge(docs, 36),
            "expected one residual component, got 2",
        ),
        (
            {**docs, "fig5_58.colouring": serialize_colouring(alg)},
            "expected a 58-colour certificate, got 37",
        ),
    ]


@pytest.mark.parametrize("fault", range(5))
def test_fig5_names_each_fault_of_its_documents(fault, monkeypatch):
    """Each document fault is named by its own check.

    The check of the 37 algorithm colours has no document of its own: the
    algorithm uses |M| + h colours, so a perfect matching on 72 vertices with
    one residual component always gives 37.
    """
    docs, message = _fig5_faults()[fault]
    monkeypatch.setitem(fig5_lower_bound.__globals__, "_load_data", docs.__getitem__)
    with pytest.raises(ValueError) as info:
        fig5_lower_bound()
    assert str(info.value) == message
