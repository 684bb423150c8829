"""Exact maximisation of the number of colours, and the rainbow-star
threshold it determines.

The optimum for budget q equals one less than the smallest palette size that
forces a rainbow (q+1)-star somewhere, so the two quantities cross-check each
other; both a pruned branch-and-bound solver and deliberately unpruned
enumeration oracles are provided.
"""

from __future__ import annotations

import sys

from ._record import Record
from .colouring import EdgeColouring, matching_based_colouring
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


class ExactResult(Record):
    """Outcome of an exact search: the best colour count found, one witness
    colouring achieving it, and whether the search space was exhausted."""

    __slots__ = ("opt", "witness", "nodes_explored", "complete")

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


def bfs_edge_order(g: Graph) -> list[int]:
    """Edge ids in breadth-first order: a search from vertex 0, restarted at
    the smallest unvisited vertex until every vertex is visited, lists each
    edge the first time a dequeued vertex's adjacency reaches it."""
    listed = [False] * g.m
    visited = [False] * g.n
    order: list[int] = []
    for start in range(g.n):
        if visited[start]:
            continue
        visited[start] = True
        queue = [start]
        for v in queue:
            for w, eid in g.adjacency[v]:
                if not listed[eid]:
                    listed[eid] = True
                    order.append(eid)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    return order


def optimal_colouring(g: Graph, q: int = 2, budget: int | None = None) -> ExactResult:
    """Maximum number of colours in a valid-for-q edge colouring.

    Depth-first branch and bound over edges in ``bfs_edge_order``, which
    closes vertices, and with them their free slots (below), early.  At each
    edge the candidates are one fresh colour (tried first, so deep palettes
    are found early) plus every already-used colour that keeps both
    endpoints within budget; assigning fresh colours in first-appearance
    order means each colour partition is enumerated exactly once.

    Slot bound: a vertex v with unassigned edges has
    ``free(v) = min(q - |palette(v)|, unassigned degree of v)`` slots for
    colours it has not seen, and a colour not used yet needs a slot at both
    endpoints of some unassigned edge.  So a partial colouring with ``used``
    colours and ``k`` unassigned edges reaches at most
    ``used + min(k, S // 2)`` colours, ``S`` the sum of the free slots.  A
    child whose bound cannot beat the incumbent is cut before it counts, so a
    node is a candidate assignment that passed the bound.  Only subtrees that
    cannot strictly improve are cut, so a complete search returns the same
    optimum and witness as the unpruned enumeration in the same edge order.
    The witness is mapped back to edge ids and relabelled into canonical
    form.

    Each child's bound takes a few integer operations: ``used + k`` and
    ``used + S // 2`` are tested against the incumbent separately, and the
    child's ``S`` follows from its parent's.  An endpoint loses one slot to a
    colour new to it, and to a colour it has seen exactly when its free slots
    equal its unassigned degree, read off a per-edge table fixed by the edge
    order.

    ``budget`` caps the node count; exceeding it returns ``complete=False``
    with the incumbent, or for ``q >= 2`` the matching-based approximation if
    that has more colours.  Refuses graphs with more than
    ``EXACT_EDGE_LIMIT`` edges.
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

    order = bfs_edge_order(g)
    edges = [g.edges[eid] for eid in order]
    # after_u[i], after_v[i]: unassigned degree of each endpoint once the
    # i-th edge of the order is assigned.  The order is fixed, so these are
    # static.
    after_u = [0] * m
    after_v = [0] * m
    degree = [0] * g.n
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        after_u[i] = degree[u]
        after_v[i] = degree[v]
        degree[u] += 1
        degree[v] += 1
    root_slots = sum(min(q, d) for d in degree)

    # Incumbent: the all-one-colour assignment is valid for every q >= 1.
    best_count = 1
    best_assign = [0] * m
    assign = [0] * m
    # palette[v]: colour -> number of assigned edges at v with that colour.
    palette: list[dict[int, int]] = [dict() for _ in range(g.n)]
    limit = budget if budget is not None else sys.maxsize
    nodes = 0
    out_of_budget = False

    def dfs(i: int, used: int, slots: int) -> None:
        # ``slots`` is S before the i-th edge of the order is assigned.
        nonlocal best_count, nodes, out_of_budget
        if i == m:
            # Only a child that beats the incumbent reaches a leaf.
            best_count = used
            best_assign[:] = assign
            return
        # Children reach at most ``reach`` colours, the fresh one one more.
        # The bound that admitted this node left ``reach >= best_count`` (the
        # root of a one-edge graph has S = 2), so only S can cut the fresh one.
        reach = used + m - i - 1
        u, v = edges[i]
        pal_u = palette[u]
        pal_v = palette[v]
        room_u = q - len(pal_u)
        room_v = q - len(pal_v)
        if room_u and room_v and used + (slots >> 1) > best_count:
            if nodes >= limit:
                out_of_budget = True
                return
            nodes += 1
            assign[i] = used
            pal_u[used] = 1
            pal_v[used] = 1
            dfs(i + 1, used + 1, slots - 2)
            del pal_u[used]
            del pal_v[used]
        if reach <= best_count:
            return
        # Whether an endpoint keeps its slots under a colour it has seen.
        keep_u = room_u <= after_u[i]
        keep_v = room_v <= after_v[i]
        base = slots - 2
        # A reused colour that both endpoints have seen keeps the most slots.
        if used + ((base + keep_u + keep_v) >> 1) <= best_count:
            return
        # A full palette admits only its own colours; iterate those directly,
        # still in increasing order.
        if room_u and room_v:
            reusable = range(used)
        elif room_u:
            reusable = sorted(pal_v)
        elif room_v:
            reusable = sorted(pal_u)
        else:
            reusable = sorted(pal_u.keys() & pal_v.keys())
        for c in reusable:
            seen_u = c in pal_u
            seen_v = c in pal_v
            child = base + (seen_u and keep_u) + (seen_v and keep_v)
            if used + (child >> 1) <= best_count:
                continue
            if nodes >= limit:
                out_of_budget = True
                return
            nodes += 1
            assign[i] = c
            pal_u[c] = pal_u[c] + 1 if seen_u else 1
            pal_v[c] = pal_v[c] + 1 if seen_v else 1
            dfs(i + 1, used, child)
            if seen_u:
                pal_u[c] -= 1
            else:
                del pal_u[c]
            if seen_v:
                pal_v[c] -= 1
            else:
                del pal_v[c]
            # The child may have raised the incumbent past ``reach``.
            if reach <= best_count:
                return

    dfs(0, 0, root_slots)
    # dfs holds itself through its closure cell, a reference cycle only the
    # cyclic collector would free, and commands run with that paused.
    del dfs
    by_id = [0] * m
    for i, eid in enumerate(order):
        by_id[eid] = best_assign[i]
    witness = EdgeColouring.from_values(g, by_id)
    if out_of_budget and q >= 2:
        approx = matching_based_colouring(g)[0]
        if approx.num_colours > best_count:
            witness = approx
            best_count = approx.num_colours
    if witness.num_colours != best_count:
        raise RuntimeError(
            f"witness has {witness.num_colours} colours, search counted {best_count}"
        )
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
    del rec  # break the closure's cycle, as optimal_colouring does with dfs
    return best


def _require_star(g: Graph, t: int) -> None:
    if t < 2:
        raise ValueError("star size t must be at least 2")
    if all(g.degree(v) < t for v in range(g.n)):
        raise PatternAbsentError(f"pattern absent: no vertex has degree >= {t}")


def anti_ramsey_star(g: Graph, t: int, budget: int | None = None) -> int:
    """Smallest palette size that forces a rainbow t-star in every surjective
    colouring, via the exact optimum for budget t-1 plus one.  Raises
    :class:`PatternAbsentError` when no vertex has degree t."""
    _require_star(g, t)
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
    _require_star(g, t)
    if g.m > DIRECT_EDGE_LIMIT:
        raise ValueError(
            f"direct enumeration limited to {DIRECT_EDGE_LIMIT} edges, graph has {g.m}"
        )
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
    del rec  # break the closure's cycle, as optimal_colouring does with dfs
    return best + 1
