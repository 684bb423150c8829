"""End-to-end acceptance suite.

Each test here checks one shipping criterion across a deterministic corpus
and prints a single ``PASS``/``FAIL`` line (shown by ``-rP``) so a full run
doubles as a release report.  The corpus is 500 random perfect-matching
instances plus 500 random bipartite (triangle-free) ones, all with at most
twelve edges so the exact solver finishes, each paired with its optimum.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from qcolour import (
    is_triangle_free,
    matching_based_colouring,
    maximum_matching,
    optimal_colouring,
    validate,
)
from qcolour.analysis import (
    analyse,
    build_cascading_sequence,
    collect_repetition_pairs,
    decompose,
    matched_colour_map,
    path_repetition,
    tree_repetition_pairs,
)
from qcolour.exact import (
    ExactResult,
    anti_ramsey_star,
    direct_anti_ramsey_star,
    oracle_optimal,
)
from qcolour.instances import (
    CertifiedInstance,
    fig5_lower_bound,
    random_triangle_free_with_pm,
    random_with_perfect_matching,
)
from helpers import (
    brute_force_matching_size,
    check_order_against_closure,
    check_pair_properties,
    connected_graphs_up_to,
    random_graph,
    random_pair_tree,
)

EDGE_LIMIT = 12
PER_FAMILY = 500


@dataclass(frozen=True, slots=True)
class CorpusEntry:
    family: str
    inst: CertifiedInstance
    res: ExactResult

    @property
    def alg(self) -> int:
        return self.inst.matching.size + self.inst.h


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def corpus() -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for family, generator in (
        ("pm", random_with_perfect_matching),
        ("tf", random_triangle_free_with_pm),
    ):
        collected = 0
        seed = 0
        while collected < PER_FAMILY:
            n = (4, 6, 8)[seed % 3]
            inst = generator(n, 0.3, seed)
            seed += 1
            if inst.graph.m > EDGE_LIMIT:
                continue
            res = optimal_colouring(inst.graph)
            assert res.complete
            entries.append(CorpusEntry(family, inst, res))
            collected += 1
    return entries


def test_criterion_1_lower_bound_reproduction():
    start = time.perf_counter()
    inst = fig5_lower_bound()
    col, m, h = matching_based_colouring(inst.graph)
    report = validate(inst.graph, inst.certified_colouring, 2)
    ratio = inst.certified_ratio
    elapsed = time.perf_counter() - start
    ok = (
        col.num_colours == 37
        and m.size == 36
        and h == 1
        and report.valid
        and report.colours_used == 58
        and ratio == Fraction(58, 37)
        and elapsed < 1.0
    )
    _criterion(
        1,
        ok,
        f"approx gives 37 colours, 58-colour certificate valid, "
        f"ratio {ratio} ({elapsed:.2f}s)",
    )


def test_criterion_2_five_thirds_bound(corpus):
    start = time.perf_counter()
    entries = [e for e in corpus if e.family == "pm"]
    violations = [
        e for e in entries if Fraction(e.res.opt) > Fraction(5, 3) * e.alg
    ]
    elapsed = time.perf_counter() - start
    ok = (
        len(entries) >= 500
        and all(e.inst.graph.m <= EDGE_LIMIT for e in entries)
        and not violations
        and elapsed < 300.0
    )
    _criterion(
        2,
        ok,
        f"OPT <= (5/3)(|M|+h) on {len(entries)} perfect-matching instances, "
        f"{len(violations)} violations",
    )


def test_criterion_3_eight_fifths_bound(corpus):
    entries = [e for e in corpus if e.family == "tf"]
    violations = [
        e for e in entries if Fraction(e.res.opt) > Fraction(8, 5) * e.alg
    ]
    ok = (
        len(entries) >= 500
        and all(is_triangle_free(e.inst.graph) for e in entries)
        and not violations
    )
    _criterion(
        3,
        ok,
        f"OPT <= (8/5)(|M|+h) on {len(entries)} triangle-free instances, "
        f"{len(violations)} violations",
    )


def test_criterion_4_bound_chain_on_corpus(corpus):
    failures: list[str] = []
    checked = 0
    for e in corpus:
        checked += 1
        try:
            report = analyse(e.inst.graph, e.inst.matching, e.res.witness)
        except ValueError as exc:
            failures.append(f"{e.family} n={e.inst.graph.n} seed={e.inst.seed}: {exc}")
            continue
        if not report.all_passed:
            bad = [x.id for x in report.entries if not x.passed]
            failures.append(f"{e.family} seed={e.inst.seed}: {bad}")
    fig5 = fig5_lower_bound()
    checked += 1
    if not analyse(fig5.graph, fig5.matching, fig5.certified_colouring).all_passed:
        failures.append("checked-in lower-bound instance")
    _criterion(
        4,
        not failures,
        f"bound chain all-passed on {checked} instances, "
        f"{len(failures)} failures{': ' + '; '.join(failures[:3]) if failures else ''}",
    )


def test_criterion_5_exact_matches_oracle():
    graphs = connected_graphs_up_to(5)
    mismatches = sum(
        1 for g in graphs if optimal_colouring(g).opt != oracle_optimal(g)
    )
    rng = random.Random(5150)
    checked = 0
    while checked < 200:
        g = random_graph(rng.randrange(4, 9), rng.uniform(0.2, 0.7), rng)
        if not 1 <= g.m <= EDGE_LIMIT:
            continue
        if optimal_colouring(g).opt != oracle_optimal(g):
            mismatches += 1
        checked += 1
    ok = len(graphs) == 772 and mismatches == 0
    _criterion(
        5,
        ok,
        f"exact == oracle on {len(graphs)} connected graphs (n<=5) "
        f"+ {checked} random (m<=12), {mismatches} mismatches",
    )


def test_criterion_6_anti_ramsey_identity(corpus):
    qualifying = [
        e.inst.graph
        for e in corpus
        if e.inst.graph.m <= 8
        and max(e.inst.graph.degree(v) for v in range(e.inst.graph.n)) >= 3
    ]
    mismatches = sum(
        1 for g in qualifying if anti_ramsey_star(g, 3) != direct_anti_ramsey_star(g, 3)
    )
    ok = len(qualifying) >= 100 and mismatches == 0
    _criterion(
        6,
        ok,
        f"star anti-Ramsey identity on {len(qualifying)} corpus graphs "
        f"(m<=8, max degree >=3), {mismatches} mismatches",
    )


def test_criterion_7_structural_constructions(corpus):
    fixtures = 0
    failures = 0
    first_error: str | None = None

    def run(check) -> None:
        nonlocal fixtures, failures, first_error
        fixtures += 1
        try:
            check()
        except (AssertionError, ValueError) as exc:
            failures += 1
            if first_error is None:
                first_error = str(exc)

    rng = random.Random(20260815)
    for _ in range(400):

        def tree_fixture():
            tree, col, m = random_pair_tree(rng)
            pairs, ordered = tree_repetition_pairs(tree, col, m)
            check_pair_properties(ordered, pairs, col, m)

        run(tree_fixture)

    for _ in range(300):

        def path_fixture():
            tree, col, m = random_pair_tree(rng, shape="path")
            path = tuple(reversed(tree.postorder))
            i, j = path_repetition(path, col, m)
            mcl = matched_colour_map(col, m)
            assert 0 <= i < j < len(path)
            assert mcl[path[i]] == mcl[path[j]]
            for a, b in zip(path[i:j], path[i + 1 : j + 1]):
                eid = next(e for y, e in col.graph.adjacency[a] if y == b)
                assert col.colour[eid] == mcl[path[i]]

        run(path_fixture)

    for entry in corpus[::3]:

        def cascade_fixture(e=entry):
            dec = decompose(e.inst.graph, e.inst.matching, e.res.witness)
            seq = build_cascading_sequence(dec)
            rp = collect_repetition_pairs(dec, seq)
            assert sum(len(t.leaves()) for t in seq.trees()) == sum(
                k - 1 for k in dec.k
            )
            assert len(rp.records) == len(dec.non_matching_colours) - dec.h
            for cp in rp.colours.values():
                assert len(cp.support) >= 2
                if cp.kind == "low_small":
                    assert len(cp.support) == 4
                elif cp.kind == "low_large":
                    assert len(cp.support) >= 6
            mcl = matched_colour_map(dec.colouring, dec.matching)
            for rec in rp.records:
                assert mcl[rec.u] == mcl[rec.v] == rec.colour
                assert rec.matched == (dec.matching.mate[rec.u] == rec.v)

        run(cascade_fixture)

    ok = fixtures >= 1000 and failures == 0
    _criterion(
        7,
        ok,
        f"{fixtures} randomized structural fixtures, {failures} failures"
        f"{': ' + first_error if first_error else ''}",
    )


def test_criterion_8_matching_against_brute_force():
    rng = random.Random(314)
    mismatches = 0
    for i in range(300):
        n = 4 + (i % 7)
        g = random_graph(n, 0.2 + 0.15 * (i % 5), rng)
        if maximum_matching(g).size != brute_force_matching_size(g):
            mismatches += 1
    _criterion(
        8,
        mismatches == 0,
        f"maximum matching == brute force on 300 fixed instances (n<=10), "
        f"{mismatches} mismatches",
    )


def test_criterion_9_two_approximation_sanity(corpus):
    worst = max(Fraction(e.res.opt, e.alg) for e in corpus)
    violations = sum(1 for e in corpus if Fraction(e.res.opt, e.alg) > 2)
    _criterion(
        9,
        violations == 0,
        f"OPT/(|M|+h) <= 2 on {len(corpus)} instances, worst ratio {worst}",
    )


def test_sequence_order_matches_closure_on_corpus(corpus):
    compared = 0
    for e in corpus[::3]:
        dec = decompose(e.inst.graph, e.inst.matching, e.res.witness)
        compared += check_order_against_closure(build_cascading_sequence(dec))
    assert compared > 0
