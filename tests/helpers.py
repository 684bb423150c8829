"""Shared test utilities: brute-force oracles and randomized fixture builders.

Everything here is deliberately naive — the point is to check the real
implementations against code too simple to be wrong."""

from __future__ import annotations

import itertools
import random

from qcolour import EdgeColouring, Graph, Matching
from qcolour.analysis import RootedTree


def brute_force_matching_size(g: Graph) -> int:
    """Maximum matching size by branching on the lowest uncovered vertex."""

    def rec(v: int, used: frozenset[int]) -> int:
        while v < g.n and v in used:
            v += 1
        if v >= g.n:
            return 0
        best = rec(v + 1, used)  # leave v exposed
        for w, _eid in g.adjacency[v]:
            if w not in used:
                best = max(best, 1 + rec(v + 1, used | {v, w}))
        return best

    return rec(0, frozenset())


def connected_graphs_up_to(nmax: int) -> list[Graph]:
    """Every connected labelled graph with 1 <= n <= nmax vertices."""
    out: list[Graph] = []
    for n in range(1, nmax + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
            if n > 1 and len(edges) < n - 1:
                continue
            g = Graph(n, edges)
            if _is_connected(g):
                out.append(g)
    return out


def _is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w, _ in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def bfs_components(g: Graph, drop: frozenset[int] = frozenset()) -> list[set[int]]:
    """Vertex sets of the components of ``g`` minus the edge ids in ``drop``,
    by breadth-first search from each unvisited vertex in id order."""
    seen: set[int] = set()
    out: list[set[int]] = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        for v in queue:
            for w, eid in g.adjacency[v]:
                if eid not in drop and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(comp)
    return out


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    )
    return Graph(n, edges)


def sparse_planted_pm_graph(n: int, avg_degree: float, rng: random.Random) -> Graph:
    """A sparse random graph on ``n`` vertices (even) with a perfect matching.

    A random pairing of the vertices is planted, then about
    ``(avg_degree - 1) * n / 2`` further distinct random pairs are added, so
    the cost is O(n + m).  The edge order is shuffled, so a greedy seed in
    edge order leaves the matching short and the augmenting search has to
    work.
    """
    order = list(range(n))
    rng.shuffle(order)
    seen = {(min(order[i], order[i + 1]), max(order[i], order[i + 1])) for i in range(0, n, 2)}
    edges = sorted(seen)
    for _ in range(int((avg_degree - 1) * n / 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        pair = (min(u, v), max(u, v))
        if u != v and pair not in seen:
            seen.add(pair)
            edges.append(pair)
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def order_closure(seq) -> dict[int, frozenset[int]]:
    """The cascading order of ``seq`` as an explicit transitive closure.

    Maps every tree vertex to the vertices strictly after it, following
    each tree's postorder and gluing trees at shared vertices.  O(V^2), so
    only for checking :meth:`RootedForestSeq.preceq` on small sequences.
    """
    succ: dict[int, set[int]] = {}
    for tree in seq.trees():
        po = tree.postorder
        for a, b in zip(po, po[1:]):
            succ.setdefault(a, set()).add(b)
        succ.setdefault(po[-1], set())
    reach: dict[int, frozenset[int]] = {}
    for start in succ:
        seen: set[int] = set()
        stack = list(succ[start])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(succ.get(x, ()))
        assert start not in seen, "cascading order contains a cycle"
        reach[start] = frozenset(seen)
    return reach


def check_order_against_closure(seq) -> int:
    """Compare ``seq.preceq`` with :func:`order_closure` on every ordered
    pair of graph vertices; return the number of pairs compared."""
    reach = order_closure(seq)
    n = seq.graph.n
    for x in range(n):
        after = reach.get(x)
        for y in range(n):
            expect = after is not None and (x == y or y in after)
            assert seq.preceq(x, y) == expect, f"preceq({x}, {y}) should be {expect}"
    return n * n


def random_pair_tree(
    rng: random.Random, shape: str = "tree", size: int | None = None
) -> tuple[RootedTree, EdgeColouring, Matching]:
    """A rooted tree plus a synthetic colouring meeting the pairing rules.

    The host graph is the tree plus one pendant matching edge per tree
    vertex.  Colours are assigned root-down so that every tree vertex
    sees at most two distinct colours, all root edges carry the root's
    matching colour, and each leaf's final edge carries the leaf's
    matching colour — exactly the preconditions of the pairing
    construction.  A small colour pool forces repeated matching colours,
    which is what makes pairs appear.  ``shape="path"`` chains the
    vertices instead of random attachment.  ``size`` fixes the number of
    tree vertices; by default it is drawn from 2..13.
    """
    t = rng.randint(2, 13) if size is None else size
    parent = {v: (v - 1 if shape == "path" else rng.randrange(v)) for v in range(1, t)}
    tree_edges = [(parent[v], v) for v in range(1, t)]
    mate_edges = [(v, t + v) for v in range(t)]
    g = Graph(2 * t, tuple(tree_edges) + tuple(mate_edges))
    m = Matching.from_edge_ids(g, range(t - 1, 2 * t - 1))

    children: dict[int, list[int]] = {v: [] for v in range(t)}
    for v in range(1, t):
        children[parent[v]].append(v)

    pool: list[int] = []
    counter = itertools.count()

    def fresh() -> int:
        c = next(counter)
        pool.append(c)
        return c

    def pick(avoid: int | None = None) -> int:
        reusable = [c for c in pool if c != avoid]
        if reusable and rng.random() < 0.65:
            return rng.choice(reusable)
        c = fresh()
        while c == avoid:  # cannot happen, but keeps the contract obvious
            c = fresh()
        return c

    ecol: dict[int, int] = {}  # tree-edge id (v-1) -> colour, keyed by child v
    mcl: dict[int, int] = {}
    mcl[0] = pick()
    for c in children[0]:
        ecol[c] = mcl[0]
    order = [0]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for c in children[v]:
            order.append(c)
        if v == 0:
            continue
        x = ecol[v]
        if not children[v]:
            mcl[v] = x
        elif rng.random() < 0.5:
            mcl[v] = x
            extra = pick(avoid=x) if rng.random() < 0.7 else None
            for c in children[v]:
                ecol[c] = x if extra is None or rng.random() < 0.5 else extra
        else:
            z = pick(avoid=x)
            mcl[v] = z
            for c in children[v]:
                ecol[c] = rng.choice([x, z])

    values = [ecol[v] for v in range(1, t)] + [mcl[v] for v in range(t)]
    col = EdgeColouring.from_values(g, values)
    tree = RootedTree.build(
        g, 0, parent, {v: v - 1 for v in range(1, t)}
    )
    return tree, col, m


def check_pair_properties(
    tree_ordered: RootedTree,
    pairs: tuple[tuple[int, int], ...],
    col: EdgeColouring,
    m: Matching,
) -> None:
    """Re-verify the pairing guarantees from outside the implementation."""
    from qcolour.analysis import matched_colour_map

    mcl = matched_colour_map(col, m)
    firsts = [u for u, _ in pairs]
    assert len(set(firsts)) == len(firsts), "repeated first coordinate"
    assert len(pairs) == len(tree_ordered.leaves())
    interiors_of_matched: list[set[int]] = []
    for u, v in pairs:
        assert u != v
        assert tree_ordered.index[u] <= tree_ordered.index[v]
        assert mcl[u] == mcl[v]
        path = tree_ordered.path(u, v)
        for x, y in zip(path, path[1:]):
            eid = tree_ordered.parent_edge[x if tree_ordered.parent.get(x) == y else y]
            assert col.colour[eid] == mcl[u], "pair path is not monochromatic"
        for w in path[1:-1]:
            assert mcl[w] != mcl[u], "interior vertex repeats the pair colour"
        if m.mate[u] == v:
            interiors_of_matched.append(set(path[1:-1]))
    for a, b in itertools.combinations(interiors_of_matched, 2):
        assert not (a & b), "matched pairs share an interior vertex"
