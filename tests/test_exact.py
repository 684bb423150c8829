from __future__ import annotations

import hashlib
import json
import random

import pytest

from qcolour import (
    Graph,
    PatternAbsentError,
    SearchIncompleteError,
    anti_ramsey_star,
    matching_based_colouring,
    optimal_colouring,
    serialize_graph,
    validate,
)
from qcolour.cli import EXIT_INCOMPLETE, EXIT_OK, main
from qcolour.exact import EXACT_EDGE_LIMIT, bfs_edge_order
from qcolour.instances import (
    fig5_lower_bound,
    named,
    random_triangle_free_with_pm,
    random_with_perfect_matching,
)
from helpers import (
    bfs_components,
    connected_graphs_up_to,
    direct_anti_ramsey_star,
    oracle_optimal,
    random_graph,
    relabelled_union,
)

# SHA-256 over (opt, witness) of every fixture below.  It equals the digest
# of the search without the slot bound, run over the same breadth-first
# edge order: pruning may only cut subtrees that cannot beat the
# incumbent, so both must stay identical.
PINNED_EXACT_DIGEST = "a67eda8a3f0319fc2e2d8668dc58d5fed468291f84c376923bd7205245055698"
# SHA-256 over (opt, nodes_explored, witness) of the same fixtures plus the
# budgeted runs below: a cheaper node must still be the same node.  Each
# component is searched on its own, so a disconnected fixture counts the sum
# of its components' nodes.
PINNED_NODE_DIGEST = "62c55368f16a032a028e80b6db2723e6de84dcc79defaa6dce27337c74c35005"


@pytest.mark.parametrize(
    "name, opt",
    [
        ("path_2", 1),
        ("path_3", 2),
        ("path_4", 3),
        ("cycle_4", 4),
        ("cycle_5", 5),
        ("cycle_6", 6),
        ("star_3", 2),
        ("complete_4", 3),
    ],
)
def test_known_optima(name, opt):
    res = optimal_colouring(named(name))
    assert res.complete
    assert res.opt == opt


def test_witness_achieves_opt_and_is_valid():
    for name in ["cycle_5", "complete_4", "star_4", "petersen"]:
        g = named(name)
        res = optimal_colouring(g)
        assert res.witness.num_colours == res.opt
        assert validate(g, res.witness, 2).valid


def test_edgeless_graph_has_zero_colours():
    res = optimal_colouring(Graph(3, ()))
    assert res.opt == 0 and res.complete and res.nodes_explored == 0


def test_budget_zero_returns_trivial_incumbent():
    g = named("cycle_4")
    res = optimal_colouring(g, q=1, budget=0)
    assert not res.complete
    assert res.opt == 1  # the all-one-colour fallback
    assert validate(g, res.witness, 1).valid
    # For q >= 2 an exhausted budget returns at least the approximation.
    res = optimal_colouring(g, budget=0)
    assert not res.complete
    assert res.opt == matching_based_colouring(g)[0].num_colours == 4
    assert validate(g, res.witness, 2).valid


def test_budget_exhaustion_keeps_partial_incumbent_valid():
    g = named("petersen")
    res = optimal_colouring(g, budget=25)
    assert not res.complete
    assert res.nodes_explored <= 25
    assert validate(g, res.witness, 2).valid
    full = optimal_colouring(g)
    assert full.complete
    assert res.opt <= full.opt


def test_q_one_forces_single_colour_per_component():
    assert optimal_colouring(named("cycle_4"), q=1).opt == 1
    two_edges = Graph(4, ((0, 1), (2, 3)))
    assert optimal_colouring(two_edges, q=1).opt == 2


def test_higher_budget_recovers_rainbow():
    g = named("star_3")
    assert optimal_colouring(g, q=3).opt == 3


def test_rejects_bad_parameters():
    g = named("path_3")
    with pytest.raises(ValueError, match="positive"):
        optimal_colouring(g, q=0)
    with pytest.raises(ValueError, match="nonnegative"):
        optimal_colouring(g, budget=-1)


def test_edge_limit_bounds_the_search_depth():
    # The search recurses once per edge: exactly at the limit it still runs
    # to the bottom (a path takes a fresh colour on every edge, so the first
    # leaf is the optimum), one edge more is refused before any recursion.
    res = optimal_colouring(named(f"path_{EXACT_EDGE_LIMIT + 1}"), budget=1000)
    assert res.complete
    assert res.opt == EXACT_EDGE_LIMIT
    with pytest.raises(ValueError, match=f"limited to {EXACT_EDGE_LIMIT} edges"):
        optimal_colouring(named(f"path_{EXACT_EDGE_LIMIT + 2}"), budget=1000)


def _pinned_fixtures():
    for gen in (random_with_perfect_matching, random_triangle_free_with_pm):
        for n in (8, 10, 12):
            for seed in range(3):
                yield f"{gen.__name__} {n} {seed}", gen(n, 0.3, seed).graph, 2
    names = ("path_5", "cycle_5", "cycle_6", "star_4", "complete_4", "complete_5",
             "complete_6", "petersen")
    for name in names:
        for q in (1, 2, 3):
            yield f"{name} q={q}", named(name), q


def test_optimum_and_witness_match_pinned_digest():
    digest = hashlib.sha256()
    for label, g, q in _pinned_fixtures():
        res = optimal_colouring(g, q)
        assert res.complete
        digest.update(f"{label}: {res.opt} {list(res.witness.colour)}\n".encode())
    assert digest.hexdigest() == PINNED_EXACT_DIGEST


def _budgeted_fixtures():
    fig5 = fig5_lower_bound().graph
    for budget in (5000, 20000):
        yield f"fig5 budget={budget}", fig5, 2, budget
    yield "complete_7 q=3 budget=200", named("complete_7"), 3, 200


def test_node_counts_match_pinned_digest():
    # The witness digest above cannot see a search that visits extra nodes
    # on its way to the same witness; this one pins every node count too,
    # including runs that stop mid-search on their budget.
    digest = hashlib.sha256()
    runs = [(label, g, q, None) for label, g, q in _pinned_fixtures()]
    for label, g, q, budget in runs + list(_budgeted_fixtures()):
        res = optimal_colouring(g, q, budget)
        assert res.complete == (budget is None)
        digest.update(
            f"{label}: {res.opt} {res.nodes_explored} {list(res.witness.colour)}\n".encode()
        )
    assert digest.hexdigest() == PINNED_NODE_DIGEST


def test_fig5_search_beats_the_approximation_within_budget():
    # The budget stops the search long before it is complete, yet its own
    # incumbent beats the approximation's 37 colours, so that is the witness.
    g = fig5_lower_bound().graph
    res = optimal_colouring(g, budget=20000)
    assert not res.complete
    assert res.opt >= 38 > matching_based_colouring(g)[0].num_colours
    assert validate(g, res.witness, 2).valid


@pytest.mark.parametrize("k", [2, 3, 50, 400])
def test_path_takes_one_node_per_edge(k):
    # The first dive gives every edge a fresh colour, which meets the bound
    # of one colour per edge, so no other child may count as a node.
    res = optimal_colouring(named(f"path_{k + 1}"))
    assert res.complete and res.opt == k
    assert res.nodes_explored == k


@pytest.mark.parametrize("name, opt", [("petersen", 7), ("complete_6", 4), ("complete_7", 4)])
def test_slot_bound_keeps_named_graphs_under_a_thousand_nodes(name, opt):
    res = optimal_colouring(named(name))
    assert res.complete and res.opt == opt
    assert res.nodes_explored < 1000


def test_result_json_is_stable(capsys, tmp_path):
    res = optimal_colouring(named("path_3"))
    doc = {
        "opt": 2,
        "complete": True,
        "nodes_explored": res.nodes_explored,
        "witness": list(res.witness.colour),
    }
    assert res.to_json_dict() == doc
    path = tmp_path / "path_3.graph"
    path.write_text(serialize_graph(named("path_3")))
    for _ in range(2):
        assert main(["exact", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_bfs_edge_order_restarts_at_smallest_unvisited_vertex():
    # Vertex 0 is isolated, so the search starts at 1 and lists its edges in
    # adjacency order, then 4's and 3's; it restarts at 2 for the last one.
    g = Graph(7, ((2, 5), (3, 6), (1, 4), (1, 3), (4, 6)))
    assert bfs_edge_order(g) == [2, 3, 4, 1, 0]


def _oracle_sized_graphs(rng: random.Random):
    """Sixty random graphs, then sixty disjoint unions of two or three with
    up to two isolated vertices, labels shuffled so that components
    interleave by id: there the breadth-first edge order restarts."""
    for union in (False, True):
        checked = 0
        while checked < 60:
            if union:
                parts = [
                    random_graph(rng.randint(2, 4), rng.uniform(0.3, 0.9), rng)
                    for _ in range(rng.randint(2, 3))
                ]
                g = relabelled_union(parts, rng.randint(0, 2), rng)
            else:
                g = random_graph(rng.randint(1, 7), rng.uniform(0.2, 0.9), rng)
            if g.m > 10:
                continue
            checked += 1
            yield g


def test_solver_matches_oracle_on_random_graphs():
    restarts = 0
    for g in _oracle_sized_graphs(random.Random(1234)):
        restarts += len(bfs_components(g)) > 1
        for q in (1, 2, 3):
            opt = oracle_optimal(g, q)
            res = optimal_colouring(g, q)
            assert res.complete and res.opt == opt
            assert res.witness.num_colours == opt
            assert validate(g, res.witness, q).valid
            # Canonical in edge-id order, whatever order the search took.
            first_seen = list(dict.fromkeys(res.witness.colour))
            assert first_seen == list(range(opt))
    assert restarts >= 60


def _metamorphic_graphs(sizes=(12, 14)):
    """Both families at each n in ``sizes``, seeds 0-2.  At n = 12 and 14
    they have 10 to 31 edges, most past the oracle's 12."""
    for gen in (random_with_perfect_matching, random_triangle_free_with_pm):
        for n in sizes:
            for seed in range(3):
                yield gen(n, 0.3, seed).graph


def _component_optima(graphs: list[Graph], q: int, rng: random.Random) -> list[int]:
    """OPT of each graph at budget ``q``, once relabelling vertices,
    reordering edges and adding isolated vertices have been checked to keep
    it, and OPT of the union with the previous graph, labels interleaved,
    to be the sum of the two with a witness valid for ``q``."""
    opts = []
    for g in graphs:
        res = optimal_colouring(g, q)
        assert res.complete
        opts.append(res.opt)
    for k, g in enumerate(graphs):
        copy = relabelled_union([g], rng.randint(1, 3), rng)
        assert optimal_colouring(copy, q).opt == opts[k]
        union = relabelled_union([g, graphs[k - 1]], rng.randint(0, 2), rng)
        res = optimal_colouring(union, q)
        assert res.complete and res.opt == opts[k] + opts[k - 1]
        assert validate(union, res.witness, q).valid
    return opts


def _check_edge_deletion(graphs: list[Graph], opts: list[int], q: int, rng: random.Random):
    """Deleting any of three sampled edges moves OPT at budget ``q`` by at
    most one."""
    for k, g in enumerate(graphs):
        for eid in rng.sample(range(g.m), 3):
            smaller = Graph(g.n, g.edges[:eid] + g.edges[eid + 1 :])
            assert abs(optimal_colouring(smaller, q).opt - opts[k]) <= 1


def test_optimum_obeys_metamorphic_relations_past_the_oracle():
    # Relations that hold for every graph, checked where no enumeration
    # reaches.  OPT is additive over components: split any colouring's
    # classes by component.  Relabelling vertices, reordering edges and
    # adding isolated vertices change nothing.  Deleting an edge e loses at
    # most its own class; to add e back, merge two classes, which raises no
    # vertex's colour count.
    rng = random.Random(2018)
    graphs = list(_metamorphic_graphs())
    _check_edge_deletion(graphs, _component_optima(graphs, 2, rng), 2, rng)


@pytest.mark.parametrize("q", [1, 3])
def test_components_and_relabelling_keep_the_optimum_at_other_budgets(q):
    # The same relations at budget q.  At q = 3 the search takes seconds at
    # n = 14, so the graphs stop at 12.
    rng = random.Random(2018 + q)
    graphs = list(_metamorphic_graphs((10, 12)))
    _check_edge_deletion(graphs, _component_optima(graphs, q, rng), q, rng)


def test_budget_is_shared_by_the_components(capsys, tmp_path):
    # Alone, the first component takes 2,716 nodes and the second 771, so a
    # budget of 3,000 runs out inside the second.
    first = random_with_perfect_matching(10, 0.3, 1).graph
    second = random_with_perfect_matching(10, 0.3, 2).graph
    assert optimal_colouring(first).nodes_explored == 2716
    assert optimal_colouring(second).nodes_explored == 771
    g = Graph(20, first.edges + tuple((u + 10, v + 10) for u, v in second.edges))
    assert optimal_colouring(g).nodes_explored == 2716 + 771
    res = optimal_colouring(g, budget=3000)
    assert not res.complete and res.nodes_explored == 3000
    assert validate(g, res.witness, 2).valid
    assert res.opt == res.witness.num_colours
    assert res.opt >= matching_based_colouring(g)[0].num_colours
    path = tmp_path / "union.graph"
    path.write_text(serialize_graph(g))
    assert main(["exact", str(path), "--budget", "3000"]) == EXIT_INCOMPLETE
    assert json.loads(capsys.readouterr().out) == res.to_json_dict()


def test_oracle_refuses_oversized_input():
    with pytest.raises(ValueError, match="oracle limited"):
        oracle_optimal(named("petersen"))


def test_anti_ramsey_identity_on_small_graphs():
    # The threshold that forces a rainbow (q+1)-star is the q-budget
    # optimum plus one; check against the definitional enumeration.
    for name in ["star_3", "star_4", "complete_4", "path_5"]:
        g = named(name)
        try:
            direct = direct_anti_ramsey_star(g, 3)
        except PatternAbsentError:
            continue
        assert anti_ramsey_star(g, 3) == direct


def test_anti_ramsey_star_sizes_other_than_three():
    g = named("star_4")
    assert direct_anti_ramsey_star(g, 2) == anti_ramsey_star(g, 2)
    assert direct_anti_ramsey_star(g, 4) == anti_ramsey_star(g, 4)


def test_the_two_references_agree_with_each_other_and_the_solver():
    # Each reference otherwise meets the other only through the solver.  The
    # oracle enumerates partitions valid for budget t - 1; the direct count
    # enumerates every partition and rejects those with a rainbow t-star.
    pairs = 0
    for g in connected_graphs_up_to(5):
        if g.m > 7:
            continue
        for t in (2, 3, 4):
            if all(g.degree(v) < t for v in range(g.n)):
                continue
            direct = direct_anti_ramsey_star(g, t)
            assert direct == oracle_optimal(g, t - 1) + 1 == anti_ramsey_star(g, t)
            pairs += 1
    assert pairs == 1537


def test_direct_anti_ramsey_requires_the_pattern():
    with pytest.raises(PatternAbsentError, match="no vertex has degree"):
        direct_anti_ramsey_star(named("path_4"), 3)
    with pytest.raises(ValueError, match="direct enumeration limited"):
        direct_anti_ramsey_star(named("petersen"), 3)


def test_anti_ramsey_star_requires_the_pattern():
    # Without a vertex of degree t no colouring can force a t-star, so the
    # budgeted optimum plus one would be a meaningless threshold.
    for name, t in [("path_4", 3), ("petersen", 4)]:
        with pytest.raises(PatternAbsentError, match="no vertex has degree"):
            anti_ramsey_star(named(name), t)


def test_anti_ramsey_budget_exhaustion_raises():
    with pytest.raises(SearchIncompleteError):
        anti_ramsey_star(named("complete_4"), 3, budget=2)
