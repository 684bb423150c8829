from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qcolour import optimal_colouring, serialize_colouring, serialize_graph, serialize_matching
from qcolour.cli import (
    EXIT_FAILED,
    EXIT_INCOMPLETE,
    EXIT_OK,
    EXIT_STRUCTURAL,
    EXIT_USAGE,
    main,
)
from qcolour.exact import EXACT_EDGE_LIMIT
from qcolour.instances import fig5_lower_bound, named, random_with_perfect_matching

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


def test_analyze_deep_path(capsys, tmp_path):
    # Path vertices 0..depth, each with a pendant matching edge; path and
    # pendant edges all wear colour 0.  The path ends 0 and depth each start
    # a one-edge non-matching class (colours 1, 2) whose other end is matched
    # in a colour of its own (3, 4).  The cascade grows one tree of depth
    # 1,500 from vertex 0.
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
    assert main(["analyze", str(gfile), str(mfile), str(cfile)]) == EXIT_OK
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


def test_sweep_rejects_bad_sizes(capsys):
    assert main(["sweep", "--sizes", "3,4"]) == EXIT_USAGE
    assert main(["sweep", "--sizes", "4,x"]) == EXIT_USAGE
    assert main(["sweep", "--count", "-1"]) == EXIT_USAGE
    assert main(["sweep", "--p", "2.0"]) == EXIT_USAGE


def test_sweep_rejects_negative_budget_before_any_work(capsys, monkeypatch):
    def no_generation(*args):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr("qcolour.cli.random_with_perfect_matching", no_generation)
    assert main(["sweep", "--family", "pm", "--budget", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: --budget must be nonnegative\n"


def test_unknown_subcommand_is_usage_error():
    assert main(["bogus"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


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
