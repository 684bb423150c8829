"""Command-line interface.

Five subcommands tie the library together::

    qcolour approx GRAPH            run the matching-based algorithm
    qcolour exact GRAPH             exhaustive optimum (branch and bound)
    qcolour verify GRAPH COLOURING  check a colouring against the budget q
    qcolour analyze GRAPH MATCHING COLOURING
                                    structural decomposition + bound chain
    qcolour sweep                   generate/solve/analyze a random corpus

Machine output is JSON with a fixed key order, so identical invocations
produce byte-identical documents; rational numbers are serialized as
strings like ``"58/37"``.  Exit codes: 0 success / all checks passed,
1 usage or I/O or parse failure, 2 structural precondition failure,
3 validity or bound failure, 4 exact search budget exhausted.  Each command
runs with the cyclic garbage collector paused, restored afterwards.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .analysis import analyse
from .colouring import (
    matching_based_colouring,
    parse_colouring,
    serialize_colouring,
    validate,
)
from .exact import EXACT_EDGE_LIMIT, optimal_colouring
from .graph import Graph, parse_graph
from .instances import random_triangle_free_with_pm, random_with_perfect_matching
from .matching import parse_matching

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRUCTURAL = 2
EXIT_FAILED = 3
EXIT_INCOMPLETE = 4

__all__ = [
    "EXIT_FAILED",
    "EXIT_INCOMPLETE",
    "EXIT_OK",
    "EXIT_STRUCTURAL",
    "EXIT_USAGE",
    "main",
]


class _UsageError(Exception):
    """Raised instead of argparse's default sys.exit so main() owns codes."""


class _HelpShown(Exception):
    """Raised instead of argparse's sys.exit(0) once ``--help`` has printed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def exit(self, status: int = 0, message: str | None = None) -> None:  # type: ignore[override]
        if status:
            raise _UsageError(message or f"exit status {status}")
        raise _HelpShown


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)


def _json(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, byte for byte.  The
    stdlib writes indented JSON with nested closures that form a reference
    cycle per document; this writer makes none."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out``; ``newline`` breaks a line and indents
    it to the level ``value`` opens at.  Dict keys must be strings."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (dict, list, tuple)):
        opened, closed = "{}" if isinstance(value, dict) else "[]"
        if not value:
            out.append(opened + closed)
            return
        inner = newline + "  "
        sep = opened + inner
        if isinstance(value, dict):
            entries = [(encode_basestring_ascii(key) + ": ", item) for key, item in value.items()]
        else:
            entries = [("", item) for item in value]
        for label, item in entries:
            out.append(sep + label)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + closed)
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:  # a float
        out.append(json.dumps(value))


def _cmd_approx(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    try:
        col, m, h = matching_based_colouring(g)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    if args.out is not None:
        _emit(serialize_colouring(col), args.out)
    print(f"|M|={m.size} h={h} colours={col.num_colours}")
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    if args.q < 1:
        raise _UsageError("--q must be a positive integer")
    if args.budget is not None and args.budget < 0:
        raise _UsageError("--budget must be nonnegative")
    g = _load_graph(args.graph)
    res = optimal_colouring(g, args.q, args.budget)
    _emit(_json(res.to_json_dict()), args.out)
    return EXIT_OK if res.complete else EXIT_INCOMPLETE


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.q < 1:
        raise _UsageError("--q must be a positive integer")
    g = _load_graph(args.graph)
    col = parse_colouring(_read_text(args.colouring), g)
    report = validate(g, col, args.q)
    _emit(_json(report.to_json_dict()), args.out)
    return EXIT_OK if report.valid else EXIT_FAILED


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    m = parse_matching(_read_text(args.matching), g)
    col = parse_colouring(_read_text(args.colouring), g)
    try:
        report = analyse(g, m, col)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    _emit(_json(report.to_json_dict()), args.out)
    return EXIT_OK if report.all_passed else EXIT_FAILED


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise _UsageError("--count must be nonnegative")
    if not 0.0 <= args.p <= 1.0:
        raise _UsageError("--p must lie in [0, 1]")
    if args.budget is not None and args.budget < 0:
        raise _UsageError("--budget must be nonnegative")
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if any(n < 2 or n % 2 for n in sizes):
        raise _UsageError("--sizes entries must be even and at least 2")
    limit = 2 * EXACT_EDGE_LIMIT  # both families plant a perfect matching, of n / 2 edges
    if any(n > limit for n in sizes):
        raise _UsageError(f"--sizes entries must be at most {limit} for the exact search")

    generator = (
        random_with_perfect_matching if args.family == "pm" else random_triangle_free_with_pm
    )
    bound = Fraction(5, 3) if args.family == "pm" else Fraction(8, 5)

    rows: list[dict] = []
    incomplete = 0
    failures = 0
    max_ratio: Fraction | None = None
    counter = 0
    for n in sizes:
        for _ in range(args.count):
            seed = args.seed + counter
            counter += 1
            inst = generator(n, args.p, seed)
            row: dict = {
                "n": n,
                "seed": seed,
                "edges": inst.graph.m,
                "matching": inst.matching.size,
                "h": inst.h,
                "alg_colours": inst.alg_colours,
            }
            res = optimal_colouring(inst.graph, 2, args.budget)
            if not res.complete:
                incomplete += 1
                row["status"] = "incomplete"
                rows.append(row)
                continue
            ratio = Fraction(res.opt, inst.alg_colours)
            try:
                report = analyse(inst.graph, inst.matching, res.witness)
                analysis_ok = report.all_passed
            except ValueError as exc:
                analysis_ok = False
                row["analysis_error"] = str(exc)
            ok = analysis_ok and ratio <= bound
            row["status"] = "ok" if ok else "failed"
            row["opt"] = res.opt
            row["ratio"] = str(ratio)
            row["analysis_all_passed"] = analysis_ok
            rows.append(row)
            if not ok:
                failures += 1
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio

    doc = {
        "family": args.family,
        "sizes": sizes,
        "count_per_size": args.count,
        "seed": args.seed,
        "extra_edge_prob": args.p,
        "bound": str(bound),
        "instances": len(rows),
        "incomplete": incomplete,
        "failures": failures,
        "max_ratio": None if max_ratio is None else str(max_ratio),
        "rows": rows,
    }
    _emit(_json(doc), args.out)
    return EXIT_FAILED if failures else EXIT_OK


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argument parser and its subparsers by command name, built once
    per process: parsing leaves them unchanged, and in-process callers of
    main() need not rebuild them."""
    parser = _Parser(prog="qcolour", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="matching-based approximate colouring")
    p.add_argument("graph", help="graph file (edge-list format)")
    p.add_argument("--out", help="write the colouring to this file")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("exact", help="exact optimum by branch and bound")
    p.add_argument("graph")
    p.add_argument("--q", type=int, default=2, help="per-vertex colour budget (default 2)")
    p.add_argument("--budget", type=int, help="node budget; exceeding it exits 4")
    p.add_argument("--out", help="write the JSON result to this file")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="validate a colouring against the budget")
    p.add_argument("graph")
    p.add_argument("colouring")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "analyze", help="decompose a colouring around a matching and check the bound chain"
    )
    p.add_argument("graph")
    p.add_argument("matching")
    p.add_argument("colouring")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="random corpus: generate, solve exactly, analyze")
    p.add_argument("--family", choices=["pm", "tf"], default="pm",
                   help="pm: random with perfect matching; tf: bipartite (triangle-free)")
    p.add_argument("--count", type=int, default=10, help="instances per size")
    p.add_argument("--sizes", default="4,6,8", help="comma-separated even vertex counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.3, help="extra-edge probability")
    p.add_argument("--budget", type=int, help="exact-solver node budget per instance")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # A known command goes straight to its subparser: the top-level parse
    # would scan argv and then run that subparser on the rest, to the same
    # namespace plus `command`, which no command reads.
    command = commands.get(argv[0]) if argv else None
    try:
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _HelpShown:
        return EXIT_OK
    # Reference counting frees all a command builds (the library makes no
    # reference cycles), so the cyclic collector would only rescan it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        # An unreadable file, or a parse/format failure from the loaders.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
