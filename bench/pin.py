"""Regenerate ``bench/pinned.json``: the input pools of the workloads and
the SHA-256 of the ``analyze`` and ``sweep`` stdout for every input they
can draw, so each request's output is checked byte for byte.

    python3 bench/pin.py

- ``analyze`` output does not depend on vertex labels or edge order, so
  one digest per size covers every seed; the script checks that on two
  seeds.
- ``approx-sparse`` pools hold ``APPROX_POOL`` inputs per size, sorted by
  the number of Python function calls ``maximum_matching`` makes on them.
  Most of these are blossom contractions, which set the search's cost
  (Spearman rank correlation 0.95 to 0.99 with its wall time), and the
  count does not depend on the machine, so the pools reproduce exactly.
  The order lets the strata spread the same range of difficulty over
  every seed.
- ``sweep-exact`` pools hold, per family and size, the seeds below
  ``SWEEP_POOL`` whose exact search completes within ``SWEEP_NODE_CAP``
  nodes, sorted by that node count.  The cap keeps a single request from
  taking a large part of a run.  ``sweep`` output does not mention the
  node budget, so a search that completes under ``--budget`` prints what
  it prints without it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import sys
from pathlib import Path

if not __package__:  # run as a script: make the ``bench`` package importable
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from bench import inputs, tracing  # noqa: E402
from bench.run import ROOT, load_qcolour  # noqa: E402
from bench.workloads import (  # noqa: E402
    APPROX_SIZES,
    DEEP_DEPTHS,
    PINNED,
    SWEEP_CELLS,
    WIDE_COPIES,
    approx_graph,
    stdout_digest,
    sweep_argv,
)

APPROX_POOL = 12
SWEEP_POOL = 120
SWEEP_NODE_CAP = 600_000


def _stdout(cli, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return buf.getvalue()


def _analyze_digests(cli, sizes, instance, workdir: Path) -> dict[str, str]:
    out = {}
    for size in sorted(set(sizes)):
        digests = set()
        for seed in (1, 2):
            files = inputs.write_analyze_inputs(
                workdir / "pin", *instance(size, random.Random(seed))
            )
            digests.add(stdout_digest(_stdout(cli, ["analyze", *files])))
        if len(digests) != 1:
            raise SystemExit(f"analyze output at size {size} depends on the labelling")
        out[str(size)] = digests.pop()
    return out


def python_calls(fn, *args) -> int:
    """The Python function calls made while ``fn(*args)`` runs, ``fn``
    itself included."""
    calls = 0

    def count(frame, event, arg):  # a global trace function sees only calls
        nonlocal calls
        calls += 1

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return calls


def _approx_pools(graph_cls, maximum_matching) -> dict[str, list]:
    pools = {}
    for n in APPROX_SIZES:
        pool = [
            [pool_seed, python_calls(maximum_matching, graph_cls(n, tuple(approx_graph(n, pool_seed))))]
            for pool_seed in range(APPROX_POOL)
        ]
        pool.sort(key=lambda entry: (entry[1], entry[0]))
        pools[str(n)] = pool
    return pools


def _sweep_pools(cli) -> dict[str, list]:
    pools = {}
    for family, n in SWEEP_CELLS:
        pool = []
        for seed in range(SWEEP_POOL):
            tracer = tracing.Tracer()
            with tracer.installed(0):
                text = _stdout(cli, sweep_argv(family, n, seed) + ("--budget", str(SWEEP_NODE_CAP)))
            doc = json.loads(text)
            if doc["incomplete"] == 0:
                pool.append([seed, tracer.counts["exact.nodes"], doc["rows"][0]["edges"], stdout_digest(text)])
        pool.sort(key=lambda entry: (entry[1], entry[0]))
        seed, _, _, digest = pool[-1]
        if stdout_digest(_stdout(cli, sweep_argv(family, n, seed))) != digest:
            raise SystemExit("sweep output depends on --budget")
        pools[f"{family}/{n}"] = pool
        print(f"{family}/{n}: {len(pool)} of {SWEEP_POOL} seeds within the node cap", file=sys.stderr)
    return pools


def main() -> int:
    cli = load_qcolour()
    from qcolour.graph import Graph
    from qcolour.matching import maximum_matching

    template = inputs.fig5_template()
    workdir = ROOT / ".bench_work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wide = _analyze_digests(
            cli, WIDE_COPIES, lambda k, rng: inputs.fig5_copies(template, k, rng), workdir
        )
        deep = _analyze_digests(cli, DEEP_DEPTHS, inputs.deep_path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "approx-sparse": _approx_pools(Graph, maximum_matching),
        "analyze-wide": wide,
        "analyze-deep": deep,
        "sweep-exact": {"pool": SWEEP_POOL, "node_cap": SWEEP_NODE_CAP, "pools": _sweep_pools(cli)},
    }
    text = json.dumps(doc, indent=1)
    # One pool entry per line.
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    PINNED.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
