"""Checks on the repository as a whole, rather than on one module's API."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Stdlib modules that are slow to import.  The records are plain slots
# classes whose shared constructor lets the interpreter bind keywords
# (dataclasses pulled in inspect for inspect.signature), the fig5 loader
# imports importlib.resources when it runs, and the CLI reads and writes
# files with open().
SLOW_MODULES = {"dataclasses", "importlib.resources", "inspect", "pathlib"}

# python -O strips assert statements and ``if __debug__:`` blocks, and an
# AssertionError reads as a failed assert, so src/ raises instead.
ASSERT_LINE = re.compile(r"^\s*assert\b|\bAssertionError\b|\b__debug__\b")


def test_start_up_imports_only_fast_standard_library_modules():
    # -S keeps site's imports out, so the child sees what qcolour loads.
    script = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        "for name in ('qcolour.cli', 'qcolour.analysis', 'qcolour.instances'):\n"
        "    importlib.import_module(name)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    new = set(run.stdout.split())
    loaded = {name.partition(".")[0] for name in new}
    assert "qcolour" in loaded
    assert sorted(loaded - set(sys.stdlib_module_names) - {"qcolour"}) == []
    assert sorted(new & SLOW_MODULES) == []


def test_src_raises_rather_than_asserts():
    # Every file under src/ but build output, line by line, as grep reads it.
    found = []
    for path in sorted(SRC.rglob("*")):
        built = any(part == "__pycache__" or part.endswith(".egg-info") for part in path.parts)
        if built or not path.is_file():
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if ASSERT_LINE.search(line):
                found.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert found == []
