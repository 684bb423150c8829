"""Exact maximisation of the number of colours, and the rainbow-star
threshold it determines.

The optimum for budget q equals one less than the smallest palette size that
forces a rainbow (q+1)-star somewhere, so one pruned branch-and-bound search
gives both.
"""

from __future__ import annotations

import sys

from ._record import Record
from .colouring import EdgeColouring, matching_based_colouring
from .graph import Graph

# optimal_colouring recurses once per edge of the component it searches, so
# its depth is the edge count of the largest component; bounding the whole
# graph keeps that well inside Python's default recursion limit of 1000
# frames.
EXACT_EDGE_LIMIT = 500


class SearchIncompleteError(RuntimeError):
    """A result that must be exact was computed under an exhausted budget."""


class PatternAbsentError(ValueError):
    """The graph contains no copy of the star being forced."""


class ExactResult(Record):
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
            for w, eid in g.adjacency[v].items():
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
    order means each colour partition is enumerated exactly once.  A
    vertex's palette is one int, bit c set once one of its assigned edges
    has colour c: a node reads both endpoint masks once, a full palette
    (``q`` bits) admits only its own colours, listed from its bits in
    increasing order, and the saved masks are written back after each child.

    Each edge-containing component is one contiguous run of the order, and
    each run is searched on its own; a run ends once no vertex it touched
    has an unassigned edge left.  The witness joins the runs' colourings,
    each run's colours numbered after the earlier runs'.  OPT is additive
    over components and an optimal colouring shares no colour between two
    of them, so, fresh colours coming first, the joined witness is the first
    optimal leaf that one search over the whole order would reach.  On a
    disconnected graph ``nodes_explored`` is the sum over its components.

    Slot bound: a vertex v with unassigned edges has
    ``free(v) = min(q - |palette(v)|, unassigned degree of v)`` slots for
    colours it has not seen, and a colour not used yet needs a slot at both
    endpoints of some unassigned edge.  So a partial colouring of a run with
    ``used`` colours and ``k`` unassigned edges reaches at most
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

    ``budget`` caps the node count, shared by the runs in order; exceeding
    it returns ``complete=False`` with the incumbent of the run it stopped
    in and one colour for each later run, or for ``q >= 2`` the
    matching-based approximation if that has more colours.  Refuses graphs
    with more than ``EXACT_EDGE_LIMIT`` edges.
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
    # static.  Read backwards, a run starts where every vertex met so far
    # has all its edges met (``pending`` counts the rest); its root S sums
    # min(q, degree) over those vertices.
    after_u = [0] * m
    after_v = [0] * m
    degree = [0] * g.n
    runs: list[tuple[int, int, int]] = []  # (start, end, root S), last first
    end = m
    pending = 0
    root_slots = 0
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        for w in (u, v):
            if not degree[w]:
                d = g.degree(w)
                pending += d
                root_slots += min(q, d)
        after_u[i] = degree[u]
        after_v[i] = degree[v]
        degree[u] += 1
        degree[v] += 1
        pending -= 2
        if not pending:
            runs.append((i, end, root_slots))
            end = i
            root_slots = 0

    best_assign = [0] * m
    assign = [0] * m
    seen = [0] * g.n
    limit = budget if budget is not None else sys.maxsize
    nodes = 0
    out_of_budget = False

    def dfs(i: int, used: int, slots: int) -> None:
        # ``slots`` is S before the i-th edge of the order is assigned.
        nonlocal best_count, nodes, out_of_budget
        if nodes >= limit:
            out_of_budget = True
            return
        nodes += 1
        if i == end:
            # Only a child that beats the incumbent reaches a leaf.
            best_count = used
            best_assign[start:end] = assign[start:end]
            return
        # Children reach at most ``reach`` colours, the fresh one one more.
        # The bound that admitted this node left ``reach >= best_count`` (the
        # root of a one-edge run has S = 2), so only S can cut the fresh one.
        reach = used + end - i - 1
        u, v = edges[i]
        mask_u = seen[u]
        mask_v = seen[v]
        room_u = q - mask_u.bit_count()
        room_v = q - mask_v.bit_count()
        if room_u and room_v and used + (slots >> 1) > best_count:
            assign[i] = used
            bit = 1 << used
            seen[u] = mask_u | bit
            seen[v] = mask_v | bit
            dfs(i + 1, used + 1, slots - 2)
            seen[u] = mask_u
            seen[v] = mask_v
        if reach <= best_count:
            return
        # The colours under which an endpoint keeps its slots: those it has
        # seen, if its free slots equal its unassigned degree.
        kept_u = mask_u if room_u <= after_u[i] else 0
        kept_v = mask_v if room_v <= after_v[i] else 0
        base = slots - 2
        # A reused colour that both endpoints keep keeps the most slots.
        if used + ((base + (kept_u > 0) + (kept_v > 0)) >> 1) <= best_count:
            return
        # A full palette admits only its own colours.
        if room_u and room_v:
            reusable = (1 << used) - 1
        elif room_u:
            reusable = mask_v
        elif room_v:
            reusable = mask_u
        else:
            reusable = mask_u & mask_v
        while reusable:
            bit = reusable & -reusable
            reusable ^= bit
            child = base + (kept_u & bit > 0) + (kept_v & bit > 0)
            if used + (child >> 1) <= best_count:
                continue
            assign[i] = bit.bit_length() - 1
            seen[u] = mask_u | bit
            seen[v] = mask_v | bit
            dfs(i + 1, used, child)
            seen[u] = mask_u
            seen[v] = mask_v
            # The child may have raised the incumbent past ``reach``.
            if reach <= best_count:
                return

    by_id = [0] * m
    offset = 0
    for start, end, root_slots in reversed(runs):
        # Incumbent: the all-one-colour assignment, valid for q >= 1.
        best_count = 1
        if not out_of_budget:
            nodes -= 1  # dfs counts its calls, and a run's root is no node
            dfs(start, 0, root_slots)
        for i in range(start, end):
            by_id[order[i]] = offset + best_assign[i]
        offset += best_count
    # dfs holds itself through its closure cell, a reference cycle only the
    # cyclic collector would free, and commands run with that paused.
    del dfs
    witness = EdgeColouring.from_values(g, by_id)
    if out_of_budget and q >= 2:
        approx = matching_based_colouring(g)[0]
        if approx.num_colours > offset:
            witness = approx
            offset = approx.num_colours
    if witness.num_colours != offset:
        raise RuntimeError(
            f"witness has {witness.num_colours} colours, search counted {offset}"
        )
    return ExactResult(offset, witness, nodes, not out_of_budget)


def anti_ramsey_star(g: Graph, t: int, budget: int | None = None) -> int:
    """Smallest palette size that forces a rainbow t-star in every surjective
    colouring, via the exact optimum for budget t-1 plus one.  Raises
    :class:`PatternAbsentError` when no vertex has degree t."""
    if t < 2:
        raise ValueError("star size t must be at least 2")
    if all(g.degree(v) < t for v in range(g.n)):
        raise PatternAbsentError(f"pattern absent: no vertex has degree >= {t}")
    res = optimal_colouring(g, t - 1, budget)
    if not res.complete:
        raise SearchIncompleteError(
            f"exact search exhausted its budget after {res.nodes_explored} nodes"
        )
    return res.opt + 1
