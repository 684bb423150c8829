"""The four workloads: how each builds its requests from a seed, and how
each request's output is checked.

A workload is one *cycle*: a fixed list of requests, built once per run
from the seed and shuffled by it, which the run repeats.  Sizes sit at
evenly spaced quantiles, both ends included, of a density proportional to
``size ** -beta``; a larger ``beta`` puts more requests at small sizes,
which keeps a cycle near a hundred requests while the largest size still
runs in every cycle.  Where the cost of an input varies at a fixed size
(``approx-sparse``, ``sweep-exact``), a pinned pool of inputs sorted by
cost is cut into strata of neighbours and the cycle takes one seeded pick
from every stratum, so every seed gets the same spread of difficulty.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import inputs
from .inputs import CheckError

PINNED = Path(__file__).with_name("pinned.json")


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv, input size (vertices) and input edges, and
    what the benchmark knows its output must be."""

    argv: tuple[str, ...]
    n: int
    edges: int
    digest: str | None = None
    ratio: str | None = None
    files: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, Path, dict], list[Request]]
    check: Callable[[Request, int, str], None]


def power_law_sizes(lo: float, hi: float, beta: float, count: int) -> list[float]:
    """``count`` sizes at evenly spaced quantiles, both ends included, of
    the density proportional to ``x ** -beta`` on ``[lo, hi]``."""
    out = []
    for i in range(count):
        q = i / (count - 1)
        if beta == 1:
            out.append(lo * (hi / lo) ** q)
        else:
            a = 1.0 - beta
            out.append((lo**a + q * (hi**a - lo**a)) ** (1.0 / a))
    return out


APPROX_SIZES = tuple(2 * round(x / 2) for x in power_law_sizes(1000, 8000, 2.5, 48))
APPROX_DEGREE = 4.0
WIDE_COPIES = tuple(round(x) for x in power_law_sizes(1, 40, 2.0, 80))
DEEP_DEPTHS = tuple(round(x) for x in power_law_sizes(100, 950, 0.0, 80))
# The 1,500-edge path of the known RecursionError; probed once per run,
# outside the timed loop (see README.md).
DEEP_PROBE_DEPTH = 1500
SWEEP_CELLS = (("pm", 8), ("pm", 10), ("tf", 10), ("tf", 12))
SWEEP_P = "0.3"
# Pool entries per stratum.
APPROX_STRATUM = 6
SWEEP_STRATUM = 2


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stratified_picks(pool: list, stratum: int, rng: random.Random) -> list:
    """One seeded pick from each run of ``stratum`` neighbours of a pool
    sorted by cost (strata differ by at most one entry)."""
    count = max(1, len(pool) // stratum)
    bounds = [s * len(pool) // count for s in range(count + 1)]
    return [rng.choice(pool[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def approx_graph(n: int, pool_seed: int) -> list[tuple[int, int]]:
    """The edges of pool input ``pool_seed`` at size ``n``."""
    edges, _ = inputs.sparse_planted_pm(n, APPROX_DEGREE, random.Random(f"{n}:{pool_seed}"))
    return edges


def build_approx(rng: random.Random, workdir: Path, pinned: dict) -> list[Request]:
    out = []
    for n in APPROX_SIZES:
        for pool_seed, _ in stratified_picks(pinned["approx-sparse"][str(n)], APPROX_STRATUM, rng):
            edges = approx_graph(n, pool_seed)
            graph = workdir / f"{len(out)}.graph"
            graph.write_text(inputs.graph_text(n, edges), encoding="utf-8")
            colouring = str(graph.with_suffix(".colouring"))
            argv = ("approx", str(graph), "--out", colouring)
            out.append(Request(argv, n, len(edges), files=(str(graph), colouring)))
    rng.shuffle(out)
    return out


def check_approx(req: Request, rc: int, stdout: str) -> None:
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    found = re.fullmatch(r"\|M\|=(\d+) h=(\d+) colours=(\d+)\n", stdout)
    if found is None:
        raise CheckError(f"unexpected stdout {stdout[:80]!r}")
    size, h, colours = map(int, found.groups())
    if size != req.n // 2:
        raise CheckError(f"|M|={size}, but the planted perfect matching has {req.n // 2} edges")
    if colours != size + h:
        raise CheckError(f"colours={colours} is not |M| + h = {size + h}")
    graph, out = (Path(f).read_text(encoding="utf-8") for f in req.files)
    n, edges = inputs.read_graph(graph)
    used = inputs.count_colours(n, edges, out)
    if used != colours:
        raise CheckError(f"--out colouring has {used} colours, stdout says {colours}")


def _analyze_builder(key: str, sizes, make_instance, ratio: Callable[[int], str]):
    """``make_instance()`` runs at build time and returns
    ``instance(size, rng) -> (n, edges, matching, colours)``."""

    def build(rng: random.Random, workdir: Path, pinned: dict) -> list[Request]:
        instance = make_instance()
        out = []
        for size in sizes:
            n, edges, matching, colours = instance(size, rng)
            files = inputs.write_analyze_inputs(workdir / str(len(out)), n, edges, matching, colours)
            out.append(
                Request(("analyze", *files), n, len(edges), pinned[key][str(size)], ratio(size))
            )
        rng.shuffle(out)
        return out

    return build


build_wide = _analyze_builder(
    "analyze-wide",
    WIDE_COPIES,
    lambda: functools.partial(inputs.fig5_copies, inputs.fig5_template()),
    lambda k: "58/37",
)
build_deep = _analyze_builder(
    "analyze-deep", DEEP_DEPTHS, lambda: inputs.deep_path, lambda depth: str(Fraction(5, depth + 4))
)


def check_analyze(req: Request, rc: int, stdout: str) -> None:
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    doc = json.loads(stdout)
    if doc["all_passed"] is not True:
        raise CheckError("all_passed is not true")
    if doc["ratio"] != req.ratio:
        raise CheckError(f"ratio {doc['ratio']}, expected {req.ratio}")
    _check_digest(req, stdout)


def sweep_argv(family: str, n: int, seed: int) -> tuple[str, ...]:
    return ("sweep", "--family", family, "--count", "1", "--sizes", str(n),
            "--seed", str(seed), "--p", SWEEP_P)


def build_sweep(rng: random.Random, workdir: Path, pinned: dict) -> list[Request]:
    out = []
    for family, n in SWEEP_CELLS:
        pool = pinned["sweep-exact"]["pools"][f"{family}/{n}"]
        for seed, _nodes, edges, digest in stratified_picks(pool, SWEEP_STRATUM, rng):
            out.append(Request(sweep_argv(family, n, seed), n, edges, digest))
    rng.shuffle(out)
    return out


def check_sweep(req: Request, rc: int, stdout: str) -> None:
    if rc != 0:
        raise CheckError(f"exit code {rc}")
    doc = json.loads(stdout)
    if doc["failures"] != 0 or doc["incomplete"] != 0:
        raise CheckError(f"failures={doc['failures']} incomplete={doc['incomplete']}")
    _check_digest(req, stdout)


def _check_digest(req: Request, stdout: str) -> None:
    if stdout_digest(stdout) != req.digest:
        raise CheckError("stdout differs from the output pinned for this input")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("approx-sparse", build_approx, check_approx),
        Workload("analyze-wide", build_wide, check_analyze),
        Workload("analyze-deep", build_deep, check_analyze),
        Workload("sweep-exact", build_sweep, check_sweep),
    )
}


def load_pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))
