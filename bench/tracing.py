"""Spans around the public functions of each ``qcolour`` module.

Each probe replaces a function at the module attribute its caller looks up
(``cli`` calls ``qcolour.cli.parse_graph``, ``analyse`` calls
``qcolour.analysis.decompose``, and so on), records one span per call and
restores the original on exit.  Nothing under ``src/`` changes.  The
program is single-threaded, so spans nest strictly and no layer waits for
another.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


def _trees(seq) -> dict[str, int]:
    return {"analysis.forests.trees": sum(len(forest) for forest in seq.forests)}


def _records(rp) -> dict[str, int]:
    return {"analysis.pairs.records": len(rp.records)}


def _nodes(res) -> dict[str, int]:
    return {"exact.nodes": res.nodes_explored}


# (module looked up by the caller, attribute, layer, counter on the result)
PROBES = (
    ("qcolour.cli", "main", "cli", None),
    ("qcolour.cli", "parse_graph", "graph", None),
    ("qcolour.instances", "parse_graph", "graph", None),
    ("qcolour.colouring", "components", "graph", None),
    ("qcolour.analysis.decompose", "components", "graph", None),
    ("qcolour.analysis.bounds", "is_triangle_free", "graph", None),
    ("qcolour.colouring", "maximum_matching", "matching", None),
    ("qcolour.instances", "maximum_matching", "matching", None),
    ("qcolour.cli", "parse_matching", "matching", None),
    ("qcolour.instances", "parse_matching", "matching", None),
    ("qcolour.instances", "is_maximum", "matching", None),
    ("qcolour.instances", "is_perfect", "matching", None),
    ("qcolour.analysis.decompose", "is_perfect", "matching", None),
    ("qcolour.cli", "matching_based_colouring", "colouring", None),
    ("qcolour.instances", "matching_based_colouring", "colouring", None),
    ("qcolour.cli", "serialize_colouring", "colouring", None),
    ("qcolour.cli", "parse_colouring", "colouring", None),
    ("qcolour.instances", "parse_colouring", "colouring", None),
    ("qcolour.cli", "validate", "colouring", None),
    ("qcolour.instances", "validate", "colouring", None),
    ("qcolour.analysis.decompose", "validate", "colouring", None),
    ("qcolour.cli", "optimal_colouring", "exact", _nodes),
    ("qcolour.cli", "random_with_perfect_matching", "instances", None),
    ("qcolour.cli", "random_triangle_free_with_pm", "instances", None),
    ("qcolour.analysis", "decompose", "analysis.decompose", None),
    ("qcolour.analysis.decompose", "matched_colour_map", "analysis.decompose", None),
    ("qcolour.analysis.repetition", "matched_colour_map", "analysis.decompose", None),
    ("qcolour.analysis.pairs", "matched_colour_map", "analysis.decompose", None),
    ("qcolour.analysis", "build_cascading_sequence", "analysis.forests", _trees),
    ("qcolour.analysis.repetition", "tree_repetition_pairs", "analysis.repetition", None),
    ("qcolour.analysis.pairs", "tree_repetition_pairs", "analysis.repetition", None),
    ("qcolour.analysis.pairs", "repetition_content", "analysis.repetition", None),
    ("qcolour.analysis", "collect_repetition_pairs", "analysis.pairs", _records),
    ("qcolour.analysis", "verify_bound_chain", "analysis.bounds", None),
)

LAYERS = (
    "cli",
    "graph",
    "matching",
    "colouring",
    "exact",
    "instances",
    "analysis.decompose",
    "analysis.forests",
    "analysis.repetition",
    "analysis.pairs",
    "analysis.bounds",
)


@dataclass(slots=True)
class Span:
    """One call of a probed function.  ``parent`` is the index of the
    enclosing span in :attr:`Tracer.spans`, or -1 for a request's root."""

    name: str
    layer: str
    request: int
    parent: int
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Collects spans and result counters in memory for one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.request = -1
        self._open: list[int] = []

    def _wrap(self, fn, name: str, layer: str, counter):
        spans, opened = self.spans, self._open

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = Span(name, layer, self.request, opened[-1] if opened else -1)
            opened.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                opened.pop()
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return probe

    @contextmanager
    def installed(self, request: int):
        """Probe every function in :data:`PROBES` for one request, then put
        the originals back."""
        self.request = request
        saved = []
        try:
            for module_name, attr, layer, counter in PROBES:
                module = sys.modules[module_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", layer, counter))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter[str]]:
        """Per span name: summed duration, summed self time, call count."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for span, self_s in zip(self.spans, self.self_seconds()):
            total[span.name] += span.end - span.start
            own[span.name] += self_s
            calls[span.name] += 1
        return total, own, calls

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for span, self_s in zip(self.spans, self.self_seconds()):
            out[span.layer] += self_s
        return out

    def per_request(self, names: tuple[str, ...]) -> dict[int, float]:
        """Summed duration of the named spans, per request."""
        out: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.name in names:
                out[span.request] += span.end - span.start
        return out
