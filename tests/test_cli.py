from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcolour import optimal_colouring, serialize_colouring, serialize_graph, serialize_matching
from qcolour.cli import (
    EXIT_FAILED,
    EXIT_INCOMPLETE,
    EXIT_OK,
    EXIT_STRUCTURAL,
    EXIT_USAGE,
    _build_parser,
    main,
)
from qcolour.exact import EXACT_EDGE_LIMIT
from qcolour.graph import MAX_VERTICES
from qcolour.instances import (
    fig5_lower_bound,
    named,
    random_triangle_free_with_pm,
    random_with_perfect_matching,
)

from helpers import merge_disjoint_classes, random_valid_colouring

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "qcolour" / "data"
FIG5 = DATA / "fig5.graph"
FIG5_MATCHING = DATA / "fig5.matching"
FIG5_CERT = DATA / "fig5_58.colouring"


@pytest.fixture()
def square(tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text(serialize_graph(named("cycle_4")))
    return path


def test_approx_prints_summary(capsys, square, tmp_path):
    out = tmp_path / "c4.colouring"
    assert main(["approx", str(square), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "|M|=2 h=2 colours=4"
    assert out.read_text().count("\n") == 4


def test_approx_on_lower_bound_instance(capsys):
    assert main(["approx", str(FIG5)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "|M|=36 h=1 colours=37"


def test_approx_structural_error_on_edgeless_graph(capsys, tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("3 0\n")
    assert main(["approx", str(path)]) == EXIT_STRUCTURAL
    assert "no edges" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    assert main(["approx", str(tmp_path / "nope.graph")]) == EXIT_USAGE
    assert main(["exact", str(tmp_path / "nope.graph")]) == EXIT_USAGE


def test_malformed_graph_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\n0 9\n")
    assert main(["exact", str(path)]) == EXIT_USAGE
    assert "out of range" in capsys.readouterr().err


def test_exact_reports_optimum(capsys, square):
    assert main(["exact", str(square)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["opt"] == 4
    assert doc["complete"] is True
    assert len(doc["witness"]) == 4


def test_exact_budget_exhaustion_exits_incomplete(capsys, square):
    assert main(["exact", str(square), "--budget", "2"]) == EXIT_INCOMPLETE
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is False


def test_exact_tiny_budget_on_large_instance(capsys):
    assert main(["exact", str(FIG5), "--budget", "10"]) == EXIT_INCOMPLETE
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete"] is False
    # An exhausted budget still reports the approximation's |M| + h.
    assert doc["opt"] >= 37
    assert len(set(doc["witness"])) == doc["opt"]


def test_exact_rejects_bad_flags(square):
    assert main(["exact", str(square), "--q", "0"]) == EXIT_USAGE
    assert main(["exact", str(square), "--budget", "-1"]) == EXIT_USAGE


def test_exact_beyond_the_edge_limit_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "long.graph"
    path.write_text(serialize_graph(named(f"path_{EXACT_EDGE_LIMIT + 2}")))
    assert main(["exact", str(path), "--budget", "5000"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        f"error: exact search limited to {EXACT_EDGE_LIMIT} edges, "
        f"graph has {EXACT_EDGE_LIMIT + 1}\n"
    )


def test_verify_valid_and_corrupted(capsys, square, tmp_path):
    res = optimal_colouring(named("cycle_4"))
    good = tmp_path / "good.colouring"
    good.write_text(serialize_colouring(res.witness))
    assert main(["verify", str(square), str(good)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["valid"] is True

    bad = tmp_path / "bad.graph"
    bad.write_text(serialize_graph(named("star_3")))
    rainbow = tmp_path / "bad.colouring"
    rainbow.write_text("0 1 0\n0 2 1\n0 3 2\n")
    assert main(["verify", str(bad), str(rainbow)]) == EXIT_FAILED
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is False
    assert doc["first_violation"]["vertex"] == 0


def test_verify_lower_bound_certificate(capsys):
    assert main(["verify", str(FIG5), str(FIG5_CERT)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"valid": True, "q": 2, "colours_used": 58,
                   "vertex_colour_counts": doc["vertex_colour_counts"],
                   "first_violation": None}
    assert all(c <= 2 for c in doc["vertex_colour_counts"])


def test_verify_accepts_approx_output(capsys, tmp_path):
    out = tmp_path / "alg.colouring"
    assert main(["approx", str(FIG5), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(FIG5), str(out)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["colours_used"] == 37


def test_analyze_lower_bound_instance(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "analyze", str(FIG5), str(FIG5_MATCHING), str(FIG5_CERT), "--out", str(out)
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert doc["ratio"] == "58/37"
    assert doc["triangle_free"] is True


def test_analyze_structural_failure(capsys, tmp_path):
    # A non-perfect matching fails the decomposition preconditions.
    g = named("path_4")
    gfile = tmp_path / "p4.graph"
    gfile.write_text(serialize_graph(g))
    mfile = tmp_path / "p4.matching"
    mfile.write_text("1 2\n")
    cfile = tmp_path / "p4.colouring"
    cfile.write_text("0 1 0\n1 2 1\n2 3 2\n")
    code = main(["analyze", str(gfile), str(mfile), str(cfile)])
    assert code == EXIT_STRUCTURAL
    assert "perfect" in capsys.readouterr().err


def test_analyze_names_a_disconnected_colour_class(capsys, tmp_path):
    # One document per kind of merged class: two matching colours, then
    # two non-matching colours, each pair vertex-disjoint.
    rng = random.Random(19)
    for want_matching, gen in ((True, random_with_perfect_matching),
                               (False, random_triangle_free_with_pm)):
        for _ in range(50):
            inst = gen(12, 0.25, rng.randrange(10**6))
            col = random_valid_colouring(inst.graph, rng, moves=8 * inst.graph.m)
            merge = merge_disjoint_classes(col, inst.matching, rng)
            if merge is not None and merge[2] == want_matching:
                break
        else:
            pytest.fail("no draw had two mergeable classes of the wanted kind")
        merged, c, _ = merge
        paths = [tmp_path / "g.graph", tmp_path / "g.matching", tmp_path / "g.colouring"]
        texts = [serialize_graph(inst.graph), serialize_matching(inst.matching),
                 serialize_colouring(merged)]
        for path, text in zip(paths, texts):
            path.write_text(text)
        assert main(["analyze", *map(str, paths)]) == EXIT_STRUCTURAL
        assert capsys.readouterr() == ("", f"error: colour class {c} is disconnected\n")


@pytest.mark.parametrize(
    "extra, shown",
    [
        # G - M is the 2-vertex path 1-2, coloured with matching colour 1.
        ((), "(1, 2)"),
        # G - M is the star at 2 with leaves 0, 1, 4 and 5, all colour 1.
        (((2, 4, 1), (2, 0, 1), (2, 5, 1)), "(0, 1, 2, 4)..."),
    ],
)
def test_unanchored_component_message_marks_only_a_cut(capsys, tmp_path, extra, shown):
    rows = [(0, 1, 0), (2, 3, 1), (4, 5, 2), (1, 2, 1), *extra]
    texts = [
        f"6 {len(rows)}\n" + "".join(f"{u} {v}\n" for u, v, _ in rows),
        "0 1\n2 3\n4 5\n",
        "".join(f"{u} {v} {c}\n" for u, v, c in rows),
    ]
    paths = [tmp_path / "g.graph", tmp_path / "g.matching", tmp_path / "g.colouring"]
    for path, text in zip(paths, texts):
        path.write_text(text)
    assert main(["analyze", *map(str, paths)]) == EXIT_STRUCTURAL
    assert capsys.readouterr() == (
        "", f"error: component with vertices {shown} has no non-matching colour class\n"
    )


def test_failed_analysis_invariant_is_a_structural_error(capsys, monkeypatch):
    # A tree that reports its first pair twice breaks the lemma that first
    # coordinates are distinct, which the pair collection checks.
    import qcolour.analysis.repetition as repetition

    def doubled_pairs(tree, col, m, original=repetition.tree_repetition_pairs):
        pairs, ordered = original(tree, col, m)
        return pairs + pairs[:1], ordered

    monkeypatch.setattr(repetition, "tree_repetition_pairs", doubled_pairs)
    assert main(["analyze", str(FIG5), str(FIG5_MATCHING), str(FIG5_CERT)]) == EXIT_STRUCTURAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: pair first coordinates must be globally distinct\n"
    assert main(["sweep", "--count", "3", "--sizes", "8", "--seed", "5"]) == EXIT_FAILED
    rows = json.loads(capsys.readouterr().out)["rows"]
    errors = [r.get("analysis_error") for r in rows if r["status"] == "failed"]
    assert errors and set(errors) == {"pair first coordinates must be globally distinct"}


def test_analyze_structural_error_on_edgeless_graph(tmp_path):
    # No edges means no matching edge and |M| + h = 0, so there is no
    # ratio to certify; the decomposition refuses before the bound chain.
    paths = [tmp_path / "empty.graph", tmp_path / "empty.matching", tmp_path / "empty.colouring"]
    for path, text in zip(paths, ["0 0\n", "", ""]):
        path.write_text(text)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "qcolour.cli", "analyze", *map(str, paths)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert run.returncode == EXIT_STRUCTURAL
    assert run.stdout == ""
    assert run.stderr == "error: graph has no edges to colour\n"


def test_analyze_detects_a_triangle_and_takes_no_option(capsys, tmp_path):
    inst = random_with_perfect_matching(6, 0.5, 6)
    res = optimal_colouring(inst.graph)
    gfile = tmp_path / "g.graph"
    gfile.write_text(serialize_graph(inst.graph))
    mfile = tmp_path / "g.matching"
    mfile.write_text(serialize_matching(inst.matching))
    cfile = tmp_path / "g.colouring"
    cfile.write_text(serialize_colouring(res.witness))
    assert main(["analyze", str(gfile), str(mfile), str(cfile)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["triangle_free"] is False
    assert not any(e["id"].endswith("_tf") for e in doc["entries"])
    # Triangle-freeness is always read off the graph; there is no option.
    code = main([
        "analyze", str(gfile), str(mfile), str(cfile), "--triangle-free", "on"
    ])
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --triangle-free" in capsys.readouterr().err


@pytest.fixture()
def deep_path(tmp_path):
    """Graph, matching and colouring files of one deep path.

    Path vertices 0..depth, each with a pendant matching edge; path and
    pendant edges all wear colour 0.  The path ends 0 and depth each start
    a one-edge non-matching class (colours 1, 2) whose other end is matched
    in a colour of its own (3, 4).  The cascade grows one tree of depth
    1,500 from vertex 0.
    """
    depth = 1500
    n = 2 * depth + 6
    b1, b1_mate, b2, b2_mate = range(2 * depth + 2, n)
    coloured = [(v, v + 1, 0) for v in range(depth)]
    coloured += [(v, depth + 1 + v, 0) for v in range(depth + 1)]
    coloured += [(0, b1, 1), (depth, b2, 2), (b1, b1_mate, 3), (b2, b2_mate, 4)]
    matching = [(v, depth + 1 + v) for v in range(depth + 1)] + [(b1, b1_mate), (b2, b2_mate)]
    gfile = tmp_path / "deep.graph"
    gfile.write_text(f"{n} {len(coloured)}\n" + "".join(f"{u} {v}\n" for u, v, _ in coloured))
    mfile = tmp_path / "deep.matching"
    mfile.write_text("".join(f"{u} {v}\n" for u, v in matching))
    cfile = tmp_path / "deep.colouring"
    cfile.write_text("".join(f"{u} {v} {c}\n" for u, v, c in coloured))
    return [str(gfile), str(mfile), str(cfile)]


def test_analyze_deep_path(capsys, deep_path):
    assert main(["analyze", *deep_path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3006
    assert doc["all_passed"] is True


def test_sweep_small_corpus(capsys):
    code = main(["sweep", "--family", "pm", "--count", "3", "--sizes", "4,6", "--seed", "5"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["instances"] == 6
    assert doc["failures"] == 0
    assert doc["incomplete"] == 0
    assert doc["bound"] == "5/3"
    assert all(r["status"] == "ok" for r in doc["rows"])
    assert all(r["analysis_all_passed"] for r in doc["rows"])


def test_sweep_is_byte_deterministic(capsys):
    args = ["sweep", "--family", "tf", "--count", "2", "--sizes", "4,6", "--seed", "1"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first
    assert json.loads(first)["bound"] == "8/5"


def test_sweep_empty_and_budget_exhausted(capsys):
    assert main(["sweep", "--count", "0"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["instances"] == 0 and doc["max_ratio"] is None

    assert main(["sweep", "--count", "2", "--sizes", "6", "--budget", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["incomplete"] == 2
    assert all(r["status"] == "incomplete" for r in doc["rows"])


def test_sweep_rejects_bad_sizes(capsys, monkeypatch):
    assert main(["sweep", "--sizes", "3,4"]) == EXIT_USAGE
    assert main(["sweep", "--sizes", "4,x"]) == EXIT_USAGE
    assert main(["sweep", "--count", "-1"]) == EXIT_USAGE
    assert main(["sweep", "--p", "2.0"]) == EXIT_USAGE
    capsys.readouterr()

    # Beyond 1000 vertices the planted perfect matching alone has more edges
    # than the exact search takes, so no instance is generated, even for 8.
    def no_generation(*args):
        raise AssertionError("an instance was generated")

    for name in ("random_with_perfect_matching", "random_triangle_free_with_pm"):
        monkeypatch.setitem(main.__globals__, name, no_generation)
    for family, size, count in [("pm", "1002", "1"), ("tf", str(10**6), "1"), ("pm", "1002", "0")]:
        argv = ["sweep", "--family", family, "--sizes", f"8,{size}", "--count", count]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: --sizes entries must be at most {2 * EXACT_EDGE_LIMIT} "
            "for the exact search\n"
        )
    assert main(["sweep", "--sizes", "1000", "--count", "0"]) == EXIT_OK


def test_sweep_rejects_negative_budget_before_any_work(capsys, monkeypatch):
    # Patch main's own globals: collecting the bench tests imports a fresh
    # qcolour.cli, so "qcolour.cli.<name>" need not be the module main reads.
    def no_generation(*args):
        raise AssertionError("an instance was generated")

    monkeypatch.setitem(main.__globals__, "random_with_perfect_matching", no_generation)
    assert main(["sweep", "--family", "pm", "--budget", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: --budget must be nonnegative\n"


def test_unknown_subcommand_is_usage_error():
    assert main(["bogus"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [["--help"], ["exact", "-h"]])
def test_help_returns_ok_from_main(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qcolour")
    assert captured.err == ""


def test_main_reuses_its_parser_without_leaking_state(capsys, square):
    calls = [
        ["exact", str(square), "--q", "1"],
        ["exact", str(square)],
        ["sweep", "--family", "tf", "--seed", "9", "--count", "1"],
        ["exact", str(square), "--budget", "many"],
        ["sweep", "--count", "1"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv in calls:
        _build_parser.cache_clear()
        first.append(run(argv))
    _build_parser.cache_clear()
    in_sequence = [run(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    assert in_sequence == first
    assert [code for code, _, _ in first] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert json.loads(first[0][1])["opt"] == 1 and json.loads(first[1][1])["opt"] == 4
    assert json.loads(first[2][1])["family"] == "tf" and json.loads(first[4][1])["family"] == "pm"


def test_a_known_command_parses_as_under_the_top_level_parser(capsys, monkeypatch, square):
    """main sends argv that starts with a command name to that command's
    parser; every argv must exit, print and parse as the top-level parse of
    the same argv does."""
    parser, commands = _build_parser()
    sq, fig5, cert = str(square), str(FIG5), str(FIG5_CERT)
    valid = [
        ["approx", fig5],
        ["exact", sq, "--q=1", "--budget", "100"],
        ["verify", fig5, cert, "--q", "2"],
        ["analyze", fig5, str(FIG5_MATCHING), cert],
        ["sweep", "--fam", "tf", "--sizes", "4,6", "--count", "1", "--seed", "5"],
        ["approx", "--", fig5],
    ]
    invalid = [
        [],
        ["--help"],
        *([name, "--help"] for name in commands),
        ["bogus", fig5],
        ["--bogus", "approx", fig5],
        ["approx", fig5, "--bogus"],
        ["--", "approx", fig5],
        ["sweep", "--"],
        ["verify", fig5],
        ["analyze"],
        ["exact", sq, "--q", "x"],
        ["sweep", "--count", "1.5"],
        ["sweep", "--family", "xx"],
    ]
    namespaces: list[dict] = []

    def run(argv):
        namespaces.clear()
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err, namespaces[:]

    def top_level_parse_only(argv):
        raise AssertionError(f"top-level parse of {argv}")

    # Each command records the namespace main hands it.
    commands_run = {name: sub.get_default("func") for name, sub in commands.items()}
    for name, sub in commands.items():
        def spy(args, command=commands_run[name]):
            namespaces.append(vars(args).copy())
            return command(args)

        sub.set_defaults(func=spy)
    try:
        dispatched = [run(argv) for argv in valid + invalid]
        with monkeypatch.context() as m:
            m.setitem(main.__globals__, "_build_parser", lambda: (parser, {}))
            top_level = [run(argv) for argv in valid + invalid]
        with monkeypatch.context() as m:
            m.setattr(parser, "parse_args", top_level_parse_only)
            assert [run(argv) for argv in valid] == dispatched[: len(valid)]
    finally:
        for name, sub in commands.items():
            sub.set_defaults(func=commands_run[name])

    def without_command(seen):
        return [{key: value for key, value in args.items() if key != "command"} for args in seen]

    for argv, (code, out, err, seen), (top_code, top_out, top_err, top_seen) in zip(
        valid + invalid, dispatched, top_level
    ):
        assert (code, out, err) == (top_code, top_out, top_err), argv
        assert without_command(seen) == without_command(top_seen), argv
    for argv, (code, _, _, seen), (_, _, _, top_seen) in zip(valid, dispatched, top_level):
        assert code == EXIT_OK and "command" not in seen[0], argv
        assert top_seen[0]["command"] == argv[0]


@contextlib.contextmanager
def _collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector_on_every_exit_path(capsys, tmp_path, square, monkeypatch,
                                                        enabled):
    edgeless = tmp_path / "empty.graph"
    edgeless.write_text("3 0\n")
    calls = [
        (["approx", str(FIG5)], EXIT_OK),
        (["--help"], EXIT_OK),
        (["bogus"], EXIT_USAGE),
        (["exact", str(square), "--q", "0"], EXIT_USAGE),
        (["approx", str(tmp_path / "nope.graph")], EXIT_USAGE),
        (["approx", str(edgeless)], EXIT_STRUCTURAL),
        (["verify", str(FIG5), str(FIG5_CERT), "--q", "1"], EXIT_FAILED),
        (["exact", str(FIG5), "--budget", "10"], EXIT_INCOMPLETE),
    ]

    def crash(text):
        raise RuntimeError("not a documented failure")

    with _collector(enabled):
        for argv, code in calls:
            assert (main(argv), gc.isenabled()) == (code, enabled)
        monkeypatch.setitem(main.__globals__, "parse_graph", crash)
        with pytest.raises(RuntimeError):
            main(["approx", str(FIG5)])
        assert gc.isenabled() is enabled


def _collections_during(argv: list[str]) -> list[int]:
    """Exit 0 from ``main(argv)`` for a caller that has the collector
    enabled; return the generation of each cyclic collection it ran."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    with _collector(True):
        gc.collect()  # so that parsing argv cannot fill the youngest generation
        gc.callbacks.append(count)
        try:
            assert main(argv) == EXIT_OK
        finally:
            gc.callbacks.remove(count)
    return starts


def test_analyze_and_approx_run_no_collection(capsys, tmp_path, deep_path):
    # A sparse graph (average degree 4) on a planted perfect matching, its
    # edges shuffled: the shape of the approx-sparse benchmark's inputs.
    rng = random.Random(3)
    n = 2000
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted(order[i : i + 2])) for i in range(0, n, 2)}
    while len(edges) < 2 * n:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    rng.shuffle(edges)
    sparse = tmp_path / "sparse.graph"
    sparse.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert _collections_during(["analyze", *deep_path]) == []
    assert _collections_during(["approx", str(sparse)]) == []
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"|M|={n // 2} ")


def _unreachable_after(argv: list[str], code: int = EXIT_OK) -> int:
    """Objects the cyclic collector finds after ``main(argv)``."""
    _build_parser()  # argparse leaves cycles the first time it is built
    with _collector(False):
        gc.collect()
        assert main(argv) == code
        return gc.collect()


def test_sweep_leaves_no_cycle_per_instance(capsys):
    # Neither the solver nor the JSON writer may leave a cycle, per
    # instance or per document.
    assert _unreachable_after(["sweep", "--count", "10"]) == 0
    assert _unreachable_after(["sweep", "--count", "1"]) == 0


def _json_commands(square: Path, tmp_path: Path) -> list[tuple[list[str], int]]:
    """One call of every subcommand that writes JSON, with its exit code,
    covering null, floats and empty lists."""
    broken = tmp_path / "broken.colouring"
    broken.write_text("0 1 0\n0 3 1\n1 2 2\n2 3 3\n")
    return [
        (["exact", str(square)], EXIT_OK),
        (["exact", str(FIG5), "--budget", "200"], EXIT_INCOMPLETE),
        (["verify", str(FIG5), str(FIG5_CERT)], EXIT_OK),
        (["verify", str(square), str(broken), "--q", "1"], EXIT_FAILED),
        (["analyze", str(FIG5), str(FIG5_MATCHING), str(FIG5_CERT)], EXIT_OK),
        (["sweep", "--count", "2", "--sizes", "6,8", "--p", "0.35"], EXIT_OK),
        (["sweep", "--count", "0"], EXIT_OK),
        (["sweep", "--family", "tf", "--count", "2", "--budget", "3"], EXIT_OK),
    ]


def test_json_commands_leave_no_cycle(capsys, square, tmp_path):
    for argv, code in _json_commands(square, tmp_path):
        assert (argv, _unreachable_after(argv, code)) == (argv, 0)


def test_json_output_is_what_the_stdlib_indent_encoder_writes(capsys, square, tmp_path):
    kinds = set()
    for argv, code in _json_commands(square, tmp_path):
        assert main(argv) == code
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n", argv
        stack = [doc]
        while stack:
            value = stack.pop()
            kinds.add("empty" if value in ([], {}) else type(value).__name__)
            if isinstance(value, (dict, list)):
                stack.extend(value.values() if isinstance(value, dict) else value)
    assert kinds >= {"NoneType", "float", "empty", "bool", "int", "str", "list", "dict"}


def test_console_script_is_installed():
    script = shutil.which("qcolour")
    argv = [script] if script else [sys.executable, "-m", "qcolour.cli"]
    proc = subprocess.run(
        [*argv, "approx", str(FIG5)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "|M|=36 h=1 colours=37"


@pytest.mark.parametrize(
    "command, documents, message",
    [
        ("verify", ["3 2\n0 1\n1 0\n", "0 1 0\n1 0 0\n"], "line 3: "),
        ("analyze", ["3 2\n0 1\n1 2\n", "0 1\n1 2\n", "0 1 0\n1 2 0\n"], "line 2: "),
        ("verify", ["3 2\n0 1\n1 2\n", "0 1 0\n1 2 -1\n"], "line 2: "),
    ],
    ids=["graph", "matching", "colouring"],
)
def test_malformed_input_fails_alike_under_optimize(tmp_path, command, documents, message):
    paths = [tmp_path / f"input{i}" for i in range(len(documents))]
    for path, text in zip(paths, documents):
        path.write_text(text)
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "qcolour.cli", command, *map(str, paths)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [EXIT_USAGE, EXIT_USAGE]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.startswith(f"error: {message}")


def test_analyze_fig5_is_identical_under_optimize():
    # No map the analysis reads may be filled inside an assert, which
    # `python -O` strips.
    paths = [DATA / "fig5.graph", DATA / "fig5.matching", DATA / "fig5_58.colouring"]
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "qcolour.cli", "analyze", *map(str, paths)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [EXIT_OK, EXIT_OK]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr == ""


@st.composite
def _documents(draw) -> tuple[str, str, str]:
    """Graph, matching and colouring texts.  Small graphs carry a greedy
    (often imperfect) matching and a colouring with arbitrary, often
    non-canonical or invalid, colour values, or the matching-based one;
    the other kinds are edgeless graphs, deep paths and oversized
    headers."""
    kind = draw(st.sampled_from(["small", "edgeless", "deep", "huge"]))
    if kind == "huge":
        return f"{MAX_VERTICES + 1} 0\n", "", ""
    if kind == "edgeless":
        return f"{draw(st.integers(0, 4))} 0\n", "", ""
    if kind == "deep":
        n = 2 * draw(st.integers(1, 150))
        edges = [(v, v + 1) for v in range(n - 1)]
    else:
        n = draw(st.integers(2, 7))
        edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))
    matched: list[tuple[int, int]] = []
    covered: set[int] = set()
    for u, v in draw(st.permutations(edges)) if kind == "small" else edges[::2]:
        if u not in covered and v not in covered:
            matched.append((u, v))
            covered |= {u, v}
    if draw(st.booleans()):
        colours = [matched.index(e) if e in matched else len(matched) for e in edges]
    else:
        colours = draw(st.lists(st.integers(0, 5), min_size=len(edges), max_size=len(edges)))
    graph = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    matching = "".join(f"{u} {v}\n" for u, v in matched)
    colouring = "".join(f"{u} {v} {c}\n" for (u, v), c in zip(edges, colours))
    return graph, matching, colouring


def _fuzz_argvs(g: Path, m: Path, c: Path) -> list[list[str]]:
    return [
        ["approx", str(g)],
        ["verify", str(g), str(c)],
        ["analyze", str(g), str(m), str(c)],
        ["exact", str(g), "--budget", "1000"],
    ]


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@given(_documents())
def test_cli_fuzz_exits_with_a_documented_code_and_reruns_identically(documents):
    with tempfile.TemporaryDirectory() as tmp:
        g, m, c = (Path(tmp) / name for name in ("g", "m", "c"))
        for path, text in zip((g, m, c), documents):
            path.write_text(text)
        for argv in _fuzz_argvs(g, m, c):
            runs = [_run_quietly(argv) for _ in range(2)]
            assert runs[0][0] in {0, 1, 2, 3, 4}, argv
            assert runs[0] == runs[1], argv


# Replays a JSON list of argvs from stdin through `main`, printing the exit
# code and the SHA-256 of stdout for each.
_REPLAY = """
import contextlib, hashlib, io, json, sys
from qcolour.cli import main
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_cli_fuzz_batch_is_identical_under_optimize(tmp_path):
    # A fixed batch of fuzz documents goes through one `python -O` process:
    # start-up would dominate a process per document.
    argvs: list[list[str]] = []

    @settings(max_examples=40, derandomize=True, database=None)
    @given(_documents())
    def collect(documents):
        folder = tmp_path / str(len(argvs))
        folder.mkdir()
        g, m, c = (folder / name for name in ("g", "m", "c"))
        for path, text in zip((g, m, c), documents):
            path.write_text(text)
        argvs.extend(_fuzz_argvs(g, m, c))

    collect()
    expected = []
    for argv in argvs:
        code, stdout = _run_quietly(argv)
        expected.append(f"{code} {hashlib.sha256(stdout.encode()).hexdigest()}")
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REPLAY],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected
    codes = {int(line.split()[0]) for line in expected}
    assert {EXIT_OK, EXIT_USAGE, EXIT_STRUCTURAL} <= codes
