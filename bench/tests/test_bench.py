"""Tests of the benchmark itself: builders, checks, statistics and tracing.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import inputs, stats, tracing  # noqa: E402
from bench.run import load_qcolour, run_request  # noqa: E402
from bench.stats import Outcome  # noqa: E402
from bench.workloads import WORKLOADS, load_pinned  # noqa: E402

cli = load_qcolour()


def _colouring_text(edges, colours):
    return "".join(f"{u} {v} {c}\n" for (u, v), c in zip(edges, colours))


@pytest.mark.parametrize("n", [10, 500])
def test_sparse_generator_is_deterministic_and_plants_a_perfect_matching(n):
    edges, planted = inputs.sparse_planted_pm(n, 4.0, random.Random(7))
    assert (edges, planted) == inputs.sparse_planted_pm(n, 4.0, random.Random(7))
    assert edges != inputs.sparse_planted_pm(n, 4.0, random.Random(8))[0]
    assert inputs.is_perfect_matching(n, edges, planted)
    keys = {(min(u, v), max(u, v)) for u, v in edges}
    assert len(keys) == len(edges) and all(u != v for u, v in edges)
    if n == 500:
        assert 3.5 < 2 * len(edges) / n < 4.5
        assert edges[: n // 2] != planted


def test_sparse_generator_leaves_greedy_seeding_short():
    n = 2000
    edges, _ = inputs.sparse_planted_pm(n, 4.0, random.Random(1))
    mate = [-1] * n
    greedy = 0
    for u, v in edges:
        if mate[u] == mate[v] == -1:
            mate[u], mate[v] = v, u
            greedy += 1
    assert greedy < 0.9 * n / 2


def test_fig5_copies_are_valid_and_deterministic():
    template = inputs.fig5_template()
    n, edges, matching, colours = inputs.fig5_copies(template, 3, random.Random(5))
    assert (n, edges, matching, colours) == inputs.fig5_copies(template, 3, random.Random(5))
    assert n == 216
    assert inputs.is_perfect_matching(n, edges, matching)
    assert inputs.count_colours(n, edges, _colouring_text(edges, colours)) == 3 * 58


def test_deep_path_is_valid_and_deterministic():
    n, edges, matching, colours = inputs.deep_path(40, random.Random(3))
    assert (n, edges, matching, colours) == inputs.deep_path(40, random.Random(3))
    assert n == 86
    assert inputs.is_perfect_matching(n, edges, matching)
    assert inputs.count_colours(n, edges, _colouring_text(edges, colours)) == 5


def test_approx_pool_cost_does_not_depend_on_the_machine():
    from qcolour.graph import Graph
    from qcolour.matching import maximum_matching

    from bench.pin import python_calls
    from bench.workloads import approx_graph

    g = Graph(400, tuple(approx_graph(400, 0)))
    before = sys.gettrace()
    calls = python_calls(maximum_matching, g)
    assert calls > 1
    assert python_calls(maximum_matching, g) == calls
    assert sys.gettrace() is before


def test_count_colours_rejects_an_invalid_colouring():
    edges = [(0, 1), (1, 2), (2, 3)]
    assert inputs.count_colours(4, edges, "0 1 5\n1 2 6\n3 2 6\n") == 2
    with pytest.raises(inputs.CheckError):
        inputs.count_colours(4, edges, "0 1 5\n1 2 6\n")
    with pytest.raises(inputs.CheckError):
        inputs.count_colours(4, [(0, 1), (0, 2), (0, 3)], "0 1 1\n0 2 2\n0 3 3\n")


def test_failed_request_ranks_slowest_and_counts_zero_edges_per_second():
    fast = [Outcome(0.01 * (i + 1), 100, True, "d") for i in range(20)]
    failed = Outcome(0.001, 100, False, None, "boom")
    ranked = stats.ranked_seconds(fast + [failed], window=5.0)
    assert ranked[-1] == 5.0
    rates = sorted([o.edges / o.seconds for o in fast] + [0.0])
    assert stats.edges_per_s_p50(fast + [failed]) == rates[len(rates) // 2]
    assert stats.edges_per_s_p50([failed, failed, fast[0]]) == 0.0


def test_tail_rank_keeps_ten_samples_beyond():
    assert stats.tail_rank(200) == 0.9
    assert stats.tail_rank(50) == pytest.approx(0.8)
    summary = stats.latency_summary([Outcome(float(i), 1, True, "d") for i in range(1, 51)], 100.0)
    assert summary["latency_p90_s"] == 40.0


def test_time_exponent_recovers_a_power_law():
    assert stats.time_exponent([(n, 3e-9 * n**2) for n in (1000, 2000, 4000)]) == pytest.approx(2.0)
    assert stats.time_exponent([(10, 1.0)]) == 0.0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans += [
        tracing.Span("cli.main", "cli", 0, -1, 0.0, 10.0),
        tracing.Span("graph.parse_graph", "graph", 0, 0, 1.0, 3.0),
        tracing.Span("colouring.matching_based_colouring", "colouring", 0, 0, 3.0, 9.0),
        tracing.Span("matching.maximum_matching", "matching", 0, 2, 4.0, 8.0),
    ]
    assert tracer.self_seconds() == [2.0, 2.0, 2.0, 4.0]
    assert sum(tracer.layer_self_seconds().values()) == 10.0


def test_tracer_restores_every_probed_function():
    originals = [getattr(sys.modules[m], a) for m, a, _, _ in tracing.PROBES]
    tracer = tracing.Tracer()
    with tracer.installed(0):
        assert all(getattr(sys.modules[m], a) is not f
                   for (m, a, _, _), f in zip(tracing.PROBES, originals))
    assert [getattr(sys.modules[m], a) for m, a, _, _ in tracing.PROBES] == originals


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_pass_checks_with_identical_digests(name, tmp_path):
    workload = WORKLOADS[name]
    cycle = workload.build(random.Random(11), tmp_path, load_pinned())
    again = workload.build(random.Random(11), tmp_path, load_pinned())
    assert [(r.argv, r.n, r.edges, r.digest) for r in cycle] == [
        (r.argv, r.n, r.edges, r.digest) for r in again
    ]
    tracer = tracing.Tracer()
    for index, req in enumerate(sorted(cycle, key=lambda r: r.edges)[:3]):
        plain = run_request(cli, req, workload.check)
        with tracer.installed(index):
            traced = run_request(cli, req, workload.check)
        assert plain.ok, plain.error
        assert traced.ok, traced.error
        assert plain.digest == traced.digest
    assert "cli.main" in {s.name for s in tracer.spans}


def test_a_changed_output_fails_the_check(tmp_path):
    workload = WORKLOADS["analyze-deep"]
    req = min(workload.build(random.Random(2), tmp_path, load_pinned()), key=lambda r: r.n)
    assert run_request(cli, req, workload.check).ok
    stdout = '{"all_passed": true, "ratio": "%s"}\n' % req.ratio
    with pytest.raises(inputs.CheckError):
        workload.check(req, 0, stdout)


def test_reported_metric_names_match_benchmark_json():
    import json

    from bench.run import end_to_end, per_layer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    outcomes = [Outcome(0.1, 10, True, "d")]
    assert set(end_to_end(outcomes, 1.0, 0.5, 30.0, 1.0)) == {m["name"] for m in spec["end_to_end"]}
    tracer = tracing.Tracer()
    tracer.spans.append(tracing.Span("cli.main", "cli", 0, -1, 0.0, 1.0))
    names = set(per_layer(tracer, [10], 1, [1.0, 1.1], 1.0, "RecursionError"))
    assert names == {m["name"] for m in spec["per_layer"]}
