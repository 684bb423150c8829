"""Exact maximisation of the number of colours, and the rainbow-star
threshold it determines.

The optimum for budget q equals one less than the smallest palette size that
forces a rainbow (q+1)-star somewhere, so the two quantities cross-check each
other; both a pruned branch-and-bound solver and deliberately unpruned
enumeration oracles are provided.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .colouring import EdgeColouring
from .graph import Graph

ORACLE_EDGE_LIMIT = 12
DIRECT_EDGE_LIMIT = 8
# optimal_colouring recurses once per edge; this keeps it well inside
# Python's default recursion limit of 1000 frames.
EXACT_EDGE_LIMIT = 500


class SearchIncompleteError(RuntimeError):
    """A result that must be exact was computed under an exhausted budget."""


class PatternAbsentError(ValueError):
    """The graph contains no copy of the star being forced."""


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search: the best colour count found, one witness
    colouring achieving it, and whether the search space was exhausted."""

    opt: int
    witness: EdgeColouring
    nodes_explored: int
    complete: bool

    def to_json_dict(self) -> dict:
        return {
            "opt": self.opt,
            "complete": self.complete,
            "nodes_explored": self.nodes_explored,
            "witness": list(self.witness.colour),
        }


def result_to_json(res: ExactResult) -> str:
    return json.dumps(res.to_json_dict(), indent=2) + "\n"


def optimal_colouring(g: Graph, q: int = 2, budget: int | None = None) -> ExactResult:
    """Maximum number of colours in a valid-for-q edge colouring.

    Depth-first branch and bound over edges in id order.  At each edge the
    candidates are one fresh colour (tried first, so deep palettes are found
    early) plus every already-used colour that keeps both endpoints within
    budget; assigning fresh colours in first-appearance order means each
    colour partition is enumerated exactly once, in canonical form.  A node is
    one candidate assignment; ``budget`` caps the node count and exceeding it
    returns the incumbent with ``complete=False``.  Refuses graphs with more
    than ``EXACT_EDGE_LIMIT`` edges.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    if g.m > EXACT_EDGE_LIMIT:
        raise ValueError(
            f"exact search limited to {EXACT_EDGE_LIMIT} edges, graph has {g.m}"
        )
    m = g.m
    if m == 0:
        return ExactResult(0, EdgeColouring(g, ()), 0, True)

    # Incumbent: the all-one-colour assignment is valid for every q >= 1.
    best_count = 1
    best_assign = [0] * m
    assign = [0] * m
    vertex_seen: list[dict[int, int]] = [dict() for _ in range(g.n)]
    nodes = 0
    out_of_budget = False

    def room(v: int, c: int) -> bool:
        seen = vertex_seen[v]
        return c in seen or len(seen) < q

    def place(eid: int, c: int) -> None:
        for v in g.edges[eid]:
            seen = vertex_seen[v]
            seen[c] = seen.get(c, 0) + 1

    def unplace(eid: int, c: int) -> None:
        for v in g.edges[eid]:
            seen = vertex_seen[v]
            seen[c] -= 1
            if not seen[c]:
                del seen[c]

    def dfs(eid: int, used: int) -> None:
        nonlocal best_count, nodes, out_of_budget
        if out_of_budget:
            return
        if eid == m:
            if used > best_count:
                best_count = used
                best_assign[:] = assign
            return
        if used + (m - eid) <= best_count:
            return
        u, v = g.edges[eid]
        candidates = []
        if room(u, used) and room(v, used):
            candidates.append(used)
        for c in range(used):
            if room(u, c) and room(v, c):
                candidates.append(c)
        for c in candidates:
            if budget is not None and nodes >= budget:
                out_of_budget = True
                return
            nodes += 1
            assign[eid] = c
            place(eid, c)
            dfs(eid + 1, used + 1 if c == used else used)
            unplace(eid, c)

    dfs(0, 0)
    witness = EdgeColouring(g, tuple(best_assign))
    assert witness.num_colours == best_count
    return ExactResult(best_count, witness, nodes, not out_of_budget)


def oracle_optimal(g: Graph, q: int = 2) -> int:
    """Reference optimum by enumerating colour partitions of the edge set as
    restricted growth strings, keeping those where every vertex stays within
    budget, and returning the maximum block count.

    A prefix is abandoned as soon as some vertex already exceeds q — validity
    only ever degrades as edges are added, so exactly the valid complete
    partitions survive.  No other pruning.  Refuses graphs with more than
    ``ORACLE_EDGE_LIMIT`` edges.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if g.m > ORACLE_EDGE_LIMIT:
        raise ValueError(
            f"oracle limited to {ORACLE_EDGE_LIMIT} edges, graph has {g.m}"
        )
    m = g.m
    if m == 0:
        return 0
    best = 0
    vertex_seen: list[dict[int, int]] = [dict() for _ in range(g.n)]

    def ok(eid: int, c: int) -> bool:
        u, v = g.edges[eid]
        su, sv = vertex_seen[u], vertex_seen[v]
        return (c in su or len(su) < q) and (c in sv or len(sv) < q)

    def place(eid: int, c: int, delta: int) -> None:
        for v in g.edges[eid]:
            seen = vertex_seen[v]
            seen[c] = seen.get(c, 0) + delta
            if not seen[c]:
                del seen[c]

    def rec(eid: int, used: int) -> None:
        nonlocal best
        if eid == m:
            best = max(best, used)
            return
        for c in range(used + 1):
            if ok(eid, c):
                place(eid, c, +1)
                rec(eid + 1, used + (1 if c == used else 0))
                place(eid, c, -1)

    rec(0, 0)
    return best


def anti_ramsey_star(g: Graph, t: int, budget: int | None = None) -> int:
    """Smallest palette size that forces a rainbow t-star in every surjective
    colouring, via the exact optimum for budget t-1 plus one."""
    if t < 2:
        raise ValueError("star size t must be at least 2")
    res = optimal_colouring(g, t - 1, budget)
    if not res.complete:
        raise SearchIncompleteError(
            f"exact search exhausted its budget after {res.nodes_explored} nodes"
        )
    return res.opt + 1


def direct_anti_ramsey_star(g: Graph, t: int) -> int:
    """The same threshold, computed from its definition: enumerate every
    colour partition of the edges (each one is a surjective colouring, up to
    renaming) and test for a vertex with t incident edges in pairwise
    distinct colours.  The largest rainbow-free block count plus one is the
    answer.  Refuses graphs with more than ``DIRECT_EDGE_LIMIT`` edges, and
    graphs with no vertex of degree t (no copy of the star to force)."""
    if t < 2:
        raise ValueError("star size t must be at least 2")
    if g.m > DIRECT_EDGE_LIMIT:
        raise ValueError(
            f"direct enumeration limited to {DIRECT_EDGE_LIMIT} edges, graph has {g.m}"
        )
    if all(g.degree(v) < t for v in range(g.n)):
        raise PatternAbsentError(f"pattern absent: no vertex has degree >= {t}")
    m = g.m
    assign = [0] * m
    best = 0

    def rainbow_free() -> bool:
        for v in range(g.n):
            distinct = {assign[eid] for _, eid in g.adjacency[v]}
            if len(distinct) >= t:
                return False
        return True

    def rec(eid: int, used: int) -> None:
        nonlocal best
        if eid == m:
            if used > best and rainbow_free():
                best = used
            return
        for c in range(used + 1):
            assign[eid] = c
            rec(eid + 1, used + (1 if c == used else 0))

    rec(0, 0)
    return best + 1
