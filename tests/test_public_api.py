"""The documented public surface: README's quick start, every ``__all__``,
and entry points that leave no reference cycles."""

from __future__ import annotations

import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcolour as q
from qcolour.analysis import analyse
from qcolour.graph import component_labels

ROOT = Path(__file__).resolve().parents[1]

MODULES_WITH_ALL = [
    "qcolour",
    "qcolour.analysis",
    "qcolour.analysis.bounds",
    "qcolour.analysis.pairs",
    "qcolour.analysis.repetition",
    "qcolour.cli",
    "qcolour.instances",
]


def test_readme_quick_start_prints_what_its_comments_say():
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    # Each print line ends in a comment with the output it promises.
    expected = [
        line.partition("#")[2].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected and all(expected)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    exec(f"from {name} import *", {})


def test_public_entry_points_make_no_reference_cycles():
    # qcolour.cli.main runs each command with the cyclic collector paused,
    # so everything the library allocates must be freed by reference
    # counting alone: no call may leave an unreachable cycle behind.
    data = ROOT / "src" / "qcolour" / "data"
    graph_text = (data / "fig5.graph").read_text()
    matching_text = (data / "fig5.matching").read_text()
    colouring_text = (data / "fig5_58.colouring").read_text()
    g = q.parse_graph(graph_text)
    m = q.parse_matching(matching_text, g)
    col = q.parse_colouring(colouring_text, g)
    small = q.named("cycle_4")
    calls = {
        "parse_graph": lambda: q.parse_graph(graph_text),
        "parse_matching": lambda: q.parse_matching(matching_text, g),
        "parse_colouring": lambda: q.parse_colouring(colouring_text, g),
        "maximum_matching": lambda: q.maximum_matching(g),
        "is_maximum": lambda: q.is_maximum(g, m),
        "components": lambda: q.components(g),
        "components, matching dropped": lambda: q.components(g, m.edges),
        "component_labels, matching dropped": lambda: component_labels(g, m.edges),
        "matching_based_colouring": lambda: q.matching_based_colouring(g),
        "validate": lambda: q.validate(g, col, 2),
        "optimal_colouring": lambda: q.optimal_colouring(small),
        "optimal_colouring, budgeted": lambda: q.optimal_colouring(g, 2, 1000),
        "anti_ramsey_star": lambda: q.anti_ramsey_star(small, 2),
        "analyse": lambda: analyse(g, m, col),
        "random_with_perfect_matching": lambda: q.random_with_perfect_matching(10, 0.3, 1),
        "random_triangle_free_with_pm": lambda: q.random_triangle_free_with_pm(10, 0.3, 1),
        "fig5_lower_bound": q.fig5_lower_bound,
    }
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, call in calls.items():
            call()
            left[name] = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert left == dict.fromkeys(calls, 0)
