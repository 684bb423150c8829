"""Run one benchmark workload against the qcolour command line.

    python3 bench/run.py --workload approx-sparse --seed 1 --seconds 25 --trace 0

Each request is one in-process call of ``qcolour.cli.main(argv)`` on files
generated from ``--seed``, with stdout captured: a closed loop with one
client and no extra threads.  The workload's cycle of requests repeats
until another cycle would pass ``--seconds``.  Every output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
request once untraced and once traced, in alternating order, and reports
the per-layer metrics, normalised per cycle.  The last line of stdout is
the result as one JSON object; the same object (and, when traced, every
span) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Median time of calibration_seconds() on the machine that measured
# baseline.json; timings are scaled to that speed (see README.md).
REFERENCE_CALIBRATION_S = 2.0e-3
# Calibration loops timed on each side of a set-up.
SETUP_CALIBRATIONS = 5

if not __package__:  # run as a script: make the ``bench`` package importable
    sys.path[0] = str(ROOT)

from bench import inputs, stats, tracing  # noqa: E402
from bench.inputs import CheckError  # noqa: E402
from bench.stats import Outcome  # noqa: E402
from bench.workloads import DEEP_PROBE_DEPTH, WORKLOADS, load_pinned, stdout_digest  # noqa: E402

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "edges_per_s_p50": "edges/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_qcolour():
    """Import ``qcolour.cli`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "qcolour" or m.startswith("qcolour.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qcolour.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qcolour imported from {cli.__file__}, not from {SRC}")
    return cli


def calibration_seconds() -> float:
    """Time a fixed loop of interpreter arithmetic with no heap growth, so
    it measures the machine's speed and not the program's state."""
    start = perf_counter()
    x = 0
    for i in range(20000):
        x = (x + i * 7) & 1023
    return perf_counter() - start


def run_request(cli, req, check) -> Outcome:
    """Time one call of ``cli.main``; any exception, unexpected exit code or
    failed output check makes the request a failure."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
    except Exception as exc:  # a crash of the program under test is a failed request
        return Outcome(perf_counter() - start, req.edges, False, None, f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    text = out.getvalue()
    try:
        check(req, rc, text)
    except (CheckError, ValueError, KeyError, TypeError, OSError) as exc:
        return Outcome(seconds, req.edges, False, stdout_digest(text), f"check: {exc}")
    return Outcome(seconds, req.edges, True, stdout_digest(text))


def run_twice(cli, req, check, tracer, index: int) -> tuple[Outcome, Outcome]:
    """Run ``req`` untraced and traced, the order alternating with
    ``index``; return ``(untraced, traced)``."""
    out = {}
    for traced in (False, True) if index % 2 == 0 else (True, False):
        if traced:
            with tracer.installed(index):
                out[traced] = run_request(cli, req, check)
        else:
            out[traced] = run_request(cli, req, check)
    return out[False], out[True]


def setup(workload, seed: int, workdir: Path, pinned: dict):
    """Import qcolour, generate and write the inputs into the new directory
    ``workdir``, run one warm-up request."""
    start = perf_counter()
    cli = load_qcolour()
    workdir.mkdir(parents=True)
    cycle = workload.build(random.Random(seed), workdir, pinned)
    run_request(cli, min(cycle, key=lambda r: r.edges), workload.check)
    return perf_counter() - start, cli, cycle


def timed_setups(workload, seed: int, workdir: Path, pinned: dict):
    """Set up ``SETUP_REPEATS`` times from an empty ``workdir`` and a
    collected heap.  Each set-up is scaled by the slowdown timed just
    around it: set-up is too short for the slowdown of the whole run to
    describe it.  Return the scaled seconds, the unscaled seconds and the
    last set-up's CLI module and cycle."""
    scaled, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        around = [calibration_seconds() for _ in range(SETUP_CALIBRATIONS)]
        seconds, cli, cycle = setup(workload, seed, workdir, pinned)
        around += [calibration_seconds() for _ in range(SETUP_CALIBRATIONS)]
        unscaled.append(seconds)
        scaled.append(seconds * REFERENCE_CALIBRATION_S / statistics.median(around))
    return scaled, unscaled, cli, cycle


def closed_loop(seconds: float, run_cycle) -> int:
    """Run whole cycles until the next one would pass ``seconds``; return
    how many ran."""
    start = perf_counter()
    spent: list[float] = []
    while True:
        t = perf_counter()
        run_cycle()
        spent.append(perf_counter() - t)
        if perf_counter() - start + statistics.fmean(spent) > seconds:
            return len(spent)


def end_to_end(
    outcomes: list[Outcome], window: float, setup_s: float, peak_rss_mb: float, slowdown: float
) -> dict[str, float]:
    """End-to-end metrics, every request time divided by ``slowdown``
    (``setup_s`` comes scaled)."""
    scaled = [dataclasses.replace(o, seconds=o.seconds / slowdown) for o in outcomes]
    latency = stats.latency_summary(scaled, window / slowdown)
    return {
        "latency_p50_s": latency["latency_p50_s"],
        "latency_p90_s": latency["latency_p90_s"],
        "edges_per_s_p50": stats.edges_per_s_p50(scaled),
        "success_rate": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


ANALYSIS_STAGES = (
    "analysis.decompose.decompose",
    "analysis.forests.build_cascading_sequence",
    "analysis.pairs.collect_repetition_pairs",
    "analysis.bounds.verify_bound_chain",
)

# Per-layer time metric -> (whole span or self time, span names summed).
SPAN_SECONDS = {
    "cli.self_s": ("self", ("cli.main",)),
    "graph.parse_s": ("total", ("graph.parse_graph",)),
    "graph.components_s": ("total", ("graph.components",)),
    "graph.triangle_free_s": ("total", ("graph.is_triangle_free",)),
    "matching.maximum_matching_s": ("total", ("matching.maximum_matching",)),
    "matching.parse_s": ("total", ("matching.parse_matching",)),
    "matching.is_maximum_s": ("total", ("matching.is_maximum",)),
    "colouring.approx_self_s": ("self", ("colouring.matching_based_colouring",)),
    "colouring.serialize_s": ("total", ("colouring.serialize_colouring",)),
    "colouring.parse_s": ("total", ("colouring.parse_colouring",)),
    "colouring.validate_s": ("total", ("colouring.validate",)),
    "exact.search_s": ("total", ("exact.optimal_colouring",)),
    "instances.generate_s": (
        "total",
        ("instances.random_with_perfect_matching", "instances.random_triangle_free_with_pm"),
    ),
    "analysis.decompose_s": ("total", ("analysis.decompose.decompose",)),
    "analysis.forests.cascade_self_s": ("self", ("analysis.forests.build_cascading_sequence",)),
    "analysis.repetition.tree_pairs_s": ("total", ("analysis.repetition.tree_repetition_pairs",)),
    "analysis.pairs.collect_self_s": ("self", ("analysis.pairs.collect_repetition_pairs",)),
    "analysis.bounds.verify_s": ("total", ("analysis.bounds.verify_bound_chain",)),
}
COUNTS = ("exact.nodes", "analysis.forests.trees", "analysis.pairs.records")


def per_layer(
    tracer, sizes: list[int], cycles: int, spent: list[float], slowdown: float, probe: str
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; times and counts are per cycle,
    and times are divided by ``slowdown``.  ``spent`` holds the untraced
    and the traced wall time of the same requests."""
    total, own, calls = tracer.totals()
    seconds = {"total": total, "self": own}
    out = {
        name: (sum(seconds[kind].get(span, 0.0) for span in spans) / cycles / slowdown, "s")
        for name, (kind, spans) in SPAN_SECONDS.items()
    }
    out.update({name: (tracer.counts[name] / cycles, "count") for name in COUNTS})
    search_s = total.get("exact.optimal_colouring", 0.0)
    trees = tracer.counts["analysis.forests.trees"]

    def exponent(names: tuple[str, ...]) -> float:
        return stats.time_exponent([(sizes[r], t) for r, t in tracer.per_request(names).items()])

    out["exact.nodes_per_s"] = (
        tracer.counts["exact.nodes"] / search_s * slowdown if search_s else 0.0,
        "1/s",
    )
    out["analysis.repetition.calls_per_tree"] = (
        calls["analysis.repetition.tree_repetition_pairs"] / trees if trees else 0.0,
        "ratio",
    )
    out["matching.time_exponent"] = (exponent(("matching.maximum_matching",)), "slope")
    out["analysis.time_exponent"] = (exponent(ANALYSIS_STAGES), "slope")
    out["trace.overhead_ratio"] = (spent[1] / spent[0] - 1.0, "ratio")
    out["analysis.deep_probe_failures"] = (float(probe != "ok"), "count")
    layer_s = tracer.layer_self_seconds()
    busy = sum(layer_s.values())
    for layer, spent in layer_s.items():
        out[f"share.{layer}"] = (spent / busy if busy else 0.0, "ratio")
    return out


def deep_probe(cli, workdir: Path) -> str:
    """Run ``analyze`` once on the 1,500-edge path; return ``"ok"`` or the
    exception it raised."""
    files = inputs.write_analyze_inputs(
        workdir / "probe", *inputs.deep_path(DEEP_PROBE_DEPTH, random.Random(0))
    )
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["analyze", *files])
    except Exception as exc:  # the known defect raises; report it, do not stop
        return type(exc).__name__
    return "ok" if rc == 0 else f"exit {rc}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcolour" / "__init__.py").is_file():
        print(f"error: no qcolour package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    pinned = load_pinned()
    try:
        setups, unscaled_setups, cli, cycle = timed_setups(workload, args.seed, workdir, pinned)
        setup_s = statistics.median(setups)

        outcomes: list[Outcome] = []
        sizes: list[int] = []
        calibrations: list[float] = []
        if args.trace:
            tracer = tracing.Tracer()
            spent = [0.0, 0.0]

            def run_cycle() -> None:
                for req in cycle:
                    calibrations.append(calibration_seconds())
                    plain, traced = run_twice(cli, req, workload.check, tracer, len(outcomes))
                    spent[0] += plain.seconds
                    spent[1] += traced.seconds
                    if plain.ok and traced.digest != plain.digest:
                        traced = dataclasses.replace(
                            traced, ok=False, error="traced and untraced stdout differ"
                        )
                    outcomes.append(traced if plain.ok else plain)
                    sizes.append(req.n)
        else:

            def run_cycle() -> None:
                for req in cycle:
                    calibrations.append(calibration_seconds())
                    outcomes.append(run_request(cli, req, workload.check))

        start = perf_counter()
        cycles_run = closed_loop(args.seconds, run_cycle)
        window = perf_counter() - start
        # Read before the probe, which runs outside the timed loop.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe = deep_probe(cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    slowdown = statistics.median(calibrations) / REFERENCE_CALIBRATION_S
    if args.trace:
        values = per_layer(tracer, sizes, cycles_run, spent, slowdown, probe)
    else:
        values = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(outcomes, window, setup_s, peak_rss_mb, slowdown).items()
        }
    failed = [o for o in outcomes if not o.ok]
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }

    tail = stats.tail_rank(len(outcomes))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"requests {len(outcomes)} in {cycles_run} cycles over {window:.2f} s; "
          f"latency_p90_s is the p{100 * tail:.0f} of {len(outcomes)} samples")
    print(f"machine slowdown {slowdown:.4f}: median of {len(calibrations)} calibration loops "
          f"over {REFERENCE_CALIBRATION_S * 1e3:.2f} ms; the times below are divided by it")
    raw = stats.latency_summary(outcomes, window)
    print(f"unscaled: setup_s runs {', '.join(f'{s:.4f}' for s in unscaled_setups)}; "
          f"latency_p50_s {raw['latency_p50_s']:.6g}; latency_p90_s {raw['latency_p90_s']:.6g}")
    print(f"known-defect probe, analyze on the {DEEP_PROBE_DEPTH}-edge path: {probe}")
    for o in failed[:5]:
        print(f"failed request: {o.error}")
    for name, (value, unit) in values.items():
        print(f"{name:40s} {value:.6g} {unit}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, cycles=cycles_run,
                  slowdown=slowdown, unscaled_latency=raw, setups=setups,
                  unscaled_setups=unscaled_setups)
    if args.trace:
        record["spans"] = [[s.name, s.request, s.parent, s.start, s.end] for s in tracer.spans]
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
