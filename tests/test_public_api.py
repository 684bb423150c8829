"""The documented public surface: README's quick start and every ``__all__``."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
