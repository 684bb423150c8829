"""Checks on the repository as a whole, rather than on one module's API."""

from __future__ import annotations

import ast
import os
import random
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA = SRC / "qcolour" / "data"

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


def test_src_imports_no_unused_name(monkeypatch):
    # A name imported in src/ must be used in its module or listed in its
    # __all__.  On an import line marked "# noqa: F401" an unused name is
    # accepted only where bench/tracing.py probes it: (module, name) is in
    # PROBES, so the import goes stale once its probe is gone.
    monkeypatch.syspath_prepend(str(ROOT))
    from bench.tracing import PROBES

    probes = {(module, name) for module, name, _, _ in PROBES}
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            probed = any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            )
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used and not (probed and (module, name) in probes):
                    unused.append(f"{path.relative_to(SRC)}:{node.lineno}: {name} is unused")
    assert unused == []


def test_record_fields_are_set_only_by_the_record_base():
    # Record.__init__ fills every field, and __setstate__ every field of a
    # pickled or copied record; no other code sets a slot around them.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "_record.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "object.__setattr__" in line:
                found.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert found == []


def test_comments_blank_lines_and_crlf_endings_do_not_change_the_analysis(capsys, tmp_path):
    from qcolour.cli import EXIT_OK, main

    names = ("fig5.graph", "fig5.matching", "fig5_58.colouring")
    # As shipped, the files hold no comment, so read_records splits them
    # whole; the rewritten copies add a comment, a blank line and CRLF
    # endings.
    for name in names:
        text = (DATA / name).read_bytes()
        assert b"#" not in text, f"{name} must hold no comment"
        (tmp_path / name).write_bytes((b"# comment\n\n" + text).replace(b"\n", b"\r\n"))
    outputs = []
    for folder in (DATA, tmp_path):
        assert main(["analyze", *(str(folder / name) for name in names)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _plain_and_optimized(args: list[str], out: Path | None) -> list[tuple[int, str, bytes]]:
    """Exit code, stdout and ``--out`` bytes of ``qcolour.cli args`` under
    python and under python -O, the two run side by side; with ``out``,
    each run writes its own ``--out`` file, ``out`` with its own suffix."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONOPTIMIZE", None)
    runs = []
    for flags, suffix in (([], ".plain"), (["-O"], ".optimized")):
        command = [sys.executable, *flags, "-m", "qcolour.cli", *args]
        written = None if out is None else out.with_suffix(suffix)
        if written is not None:
            command += ["--out", str(written)]
        child = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        runs.append((child, written))
    results = []
    for child, written in runs:
        stdout = child.communicate()[0]
        results.append((child.returncode, stdout, b"" if written is None else written.read_bytes()))
    return results


def test_output_is_the_same_under_python_O(monkeypatch, tmp_path):
    # python -O strips asserts and __debug__ blocks, so a check or an output
    # that rests on them differs between the two runs.
    monkeypatch.syspath_prepend(str(ROOT))
    from bench import inputs

    fig5 = [str(DATA / name) for name in ("fig5.graph", "fig5.matching", "fig5_58.colouring")]
    # fig5 has one component of G - M and shallow trees.  The bench's
    # deep-probe path grows one tree of depth 1500, and three fig5 copies
    # give three components.
    deep = inputs.write_analyze_inputs(tmp_path / "deep", *inputs.deep_path(1500, random.Random(0)))
    copies = inputs.fig5_copies(inputs.fig5_template(), 3, random.Random(0))
    copies = inputs.write_analyze_inputs(tmp_path / "copies", *copies)
    sparse = tmp_path / "sparse.graph"
    edges, _ = inputs.sparse_planted_pm(2000, 4.0, random.Random(0))
    sparse.write_text(inputs.graph_text(2000, edges), encoding="utf-8")
    cases = [
        (0, ["sweep", "--family", "pm", "--sizes", "8,10", "--count", "10"]),
        (0, ["sweep", "--family", "tf", "--sizes", "8,10", "--count", "10"]),
        (4, ["exact", fig5[0], "--budget", "20000"]),
        (0, ["analyze", *fig5]),
        (0, ["analyze", *deep]),
        (0, ["analyze", *copies]),
    ]
    # approx writes a colouring too: compare its stdout and its --out file.
    # fig5 has h = 1; three fig5 copies leave several components of G - M,
    # and the sparse graph makes the matching search.
    approx = [(0, ["approx", graph]) for graph in (fig5[0], copies[0], str(sparse))]
    for expected, args in cases + approx:
        out = tmp_path / Path(args[1]).stem if args[0] == "approx" else None
        plain, optimized = _plain_and_optimized(args, out)
        assert plain[0] == expected, args
        assert optimized == plain, args
