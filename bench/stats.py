"""Summary statistics over one run's requests."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    """One timed request: wall seconds, input edges, whether every check
    passed, and the SHA-256 of its stdout (``None`` if it raised)."""

    seconds: float
    edges: int
    ok: bool
    digest: str | None
    error: str | None = None


def tail_rank(count: int) -> float:
    """The highest percentile, at most the 90th, with at least ten samples
    beyond it; the median when there are too few samples for that."""
    return max(0.5, min(0.9, 1.0 - 10.0 / count))


def ranked_seconds(outcomes: list[Outcome], window: float) -> list[float]:
    """Latencies sorted ascending, a failed request counted as taking the
    whole measurement ``window``, so it ranks slower than any success."""
    return sorted(o.seconds if o.ok else max(window, o.seconds) for o in outcomes)


def latency_summary(outcomes: list[Outcome], window: float) -> dict[str, float]:
    ranked = ranked_seconds(outcomes, window)
    return {
        "latency_p50_s": nearest_rank(ranked, 0.5),
        "latency_p90_s": nearest_rank(ranked, tail_rank(len(ranked))),
    }


def nearest_rank(ranked: list[float], q: float) -> float:
    """The smallest sample with at least a share ``q`` of samples at or below it."""
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def edges_per_s_p50(outcomes: list[Outcome]) -> float:
    """Median over requests of input edges per second; a failed request
    counts as 0."""
    return statistics.median(o.edges / o.seconds if o.ok else 0.0 for o in outcomes)


def time_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(n); 0 when fewer
    than two distinct sizes have a positive time."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
