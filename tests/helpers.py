"""Shared test utilities: brute-force oracles and randomized fixture builders.

Everything here is deliberately naive — the point is to check the real
implementations against code too simple to be wrong."""

from __future__ import annotations

import itertools
import random
from collections import deque

from qcolour import (
    ColouringFormatError,
    Component,
    EdgeColouring,
    EdgeSubset,
    Graph,
    GraphFormatError,
    Matching,
    MatchingFormatError,
    PatternAbsentError,
    maximum_matching,
)
from qcolour.analysis import (
    AnalysisInvariantError,
    RootedForestSeq,
    RootedTree,
    UnanchoredComponentError,
    tree_repetition_pairs,
)
from qcolour.graph import MAX_VERTICES, InvalidEdgeError

# Edge caps of oracle_optimal and direct_anti_ramsey_star: each enumerates
# colour partitions of the edges, as many as the Bell number of the count.
ORACLE_EDGE_LIMIT = 12
DIRECT_EDGE_LIMIT = 8


def brute_force_matching_size(g: Graph) -> int:
    """Maximum matching size by branching on the lowest uncovered vertex."""

    def rec(v: int, used: frozenset[int]) -> int:
        while v < g.n and v in used:
            v += 1
        if v >= g.n:
            return 0
        best = rec(v + 1, used)  # leave v exposed
        for w in g.adjacency[v]:
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
        for w in g.adjacency[v]:
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
            for w, eid in g.adjacency[v].items():
                if eid not in drop and w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(comp)
    return out


def union_find_components(g: Graph, drop: EdgeSubset | None = None) -> list[Component]:
    """``components`` as first implemented: one union-find pass over the
    kept edges, then scans in id order.  Kept to check that grouping by
    ``component_labels`` changes no component."""
    if drop is not None and drop.graph != g:
        raise ValueError("edge subset belongs to a different graph")
    kept = range(g.m) if drop is None else [e for e in range(g.m) if e not in drop.members]
    edges = g.edges
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in kept:
        u, v = edges[eid]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    # where[v] is the index of v's component; a root is reached first at its
    # component's minimum vertex, so components are numbered in that order.
    where = [-1] * g.n
    verts: list[list[int]] = []
    for v in range(g.n):
        r = find(v)
        if where[r] < 0:
            where[r] = len(verts)
            verts.append([])
        where[v] = where[r]
        verts[where[v]].append(v)
    eids: list[list[int]] = [[] for _ in verts]
    for eid in kept:
        eids[where[edges[eid][0]]].append(eid)
    return [Component(tuple(vs), tuple(es)) for vs, es in zip(verts, eids)]


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


def direct_anti_ramsey_star(g: Graph, t: int) -> int:
    """The threshold ``anti_ramsey_star`` computes, taken from its
    definition: enumerate every colour partition of the edges (each one is a
    surjective colouring, up to renaming) and test for a vertex with t
    incident edges in pairwise distinct colours.  The largest rainbow-free block count plus one is the
    answer.  Refuses graphs with more than ``DIRECT_EDGE_LIMIT`` edges, and
    graphs with no vertex of degree t (no copy of the star to force)."""
    if t < 2:
        raise ValueError("star size t must be at least 2")
    if all(g.degree(v) < t for v in range(g.n)):
        raise PatternAbsentError(f"pattern absent: no vertex has degree >= {t}")
    if g.m > DIRECT_EDGE_LIMIT:
        raise ValueError(
            f"direct enumeration limited to {DIRECT_EDGE_LIMIT} edges, graph has {g.m}"
        )
    m = g.m
    assign = [0] * m
    best = 0

    def rainbow_free() -> bool:
        for v in range(g.n):
            distinct = {assign[eid] for eid in g.adjacency[v].values()}
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


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    )
    return Graph(n, edges)


def relabelled_union(parts: list[Graph], isolated: int, rng: random.Random) -> Graph:
    """The disjoint union of ``parts`` plus ``isolated`` extra vertices, with
    vertex labels and edge order shuffled, so components interleave by id."""
    n = sum(p.n for p in parts) + isolated
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    offset = 0
    for p in parts:
        edges.extend((label[offset + u], label[offset + v]) for u, v in p.edges)
        offset += p.n
    rng.shuffle(edges)
    return Graph(n, tuple(edges))


def reference_matching_based_colouring(g: Graph) -> tuple[EdgeColouring, Matching, int]:
    """The approximation as first implemented: the union-find lists G − M,
    each edge names the edge that opens its colour (a matching edge its
    own, a component's edges that component's lowest edge id), and
    ``from_values`` numbers the openers.  Kept to check that labelling
    G − M in one search changes no colour."""
    m = maximum_matching(g)
    opener = list(range(g.m))
    h = 0
    for comp in union_find_components(g, m.edges):
        if comp.has_edges:
            h += 1
            for eid in comp.edge_ids:
                opener[eid] = comp.edge_ids[0]
    return EdgeColouring.from_values(g, opener), m, h


def reference_gm_components(
    g: Graph, m: Matching, col: EdgeColouring
) -> tuple[tuple[Component, ...], tuple[tuple[int, ...], ...]]:
    """``decompose``'s ``gm_components`` and ``component_colours`` as first
    implemented: the edge-containing entries of the union-find's components
    of G − M, and the non-matching colours met scanning each one's edges.
    Kept to check that building them from one labelling of G − M changes
    neither."""
    colour = col.colour
    matching_colours = {colour[eid] for eid in m.edges.members}
    comps = tuple(comp for comp in union_find_components(g, m.edges) if comp.has_edges)
    colours = tuple(
        tuple(
            c for c in dict.fromkeys(colour[eid] for eid in comp.edge_ids)
            if c not in matching_colours
        )
        for comp in comps
    )
    return comps, colours


def reference_tree_walk(
    graph: Graph, root: int, children: dict[int, tuple[int, ...]]
) -> tuple[dict[int, int], dict[int, int], tuple[int, ...]]:
    """``(parent, parent_edge, postorder)`` of a valid tree shape by the
    ``(vertex, index)`` stack ``RootedTree`` first walked it with: the
    walk enters child ``i`` of a vertex, then resumes the vertex at
    ``i + 1``, and lists the vertex once its children are done.  Kept to
    check that reversing a preorder gives the same tree."""
    parent: dict[int, int] = {}
    parent_edge: dict[int, int] = {}
    post: list[int] = []
    stack = [(root, 0)]
    while stack:
        v, i = stack.pop()
        kids = children.get(v, ())
        if i < len(kids):
            c = kids[i]
            parent[c] = v
            parent_edge[c] = graph.edge_id(c, v)
            stack.append((v, i + 1))
            stack.append((c, 0))
        else:
            post.append(v)
    return parent, parent_edge, tuple(post)


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
    only for checking the bound chain's star test on small sequences.
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


def check_star_against_closure(seq, rp) -> tuple[int, int]:
    """Check the set form of the star test that ``low_support_closure``
    runs, one vertex of the support left after the first coordinates,
    against the order form on :func:`order_closure`: the support has one
    maximum and every other vertex is a first coordinate.  Runs on every
    paired colour of ``rp``, the pairs of ``seq``, high ones too; returns
    the number of colours checked and the number that are stars."""
    reach = order_closure(seq)
    stars = 0
    for colour, cp in rp.colours.items():
        firsts = {r.u for r in cp.records}
        maxima = {x for x in cp.support if not reach[x] & cp.support}
        by_order = len(maxima) == 1 and cp.support == firsts | maxima
        by_set = len(cp.support - firsts) == 1
        assert by_set == by_order, f"colour {colour}: set test {by_set}, order test {by_order}"
        stars += by_order
    return len(rp.colours), stars


def reference_cascade(dec) -> RootedForestSeq:
    """The cascading sequence of ``dec`` as first implemented: every round
    rebuilds its roots from every vertex of every visited class, and
    searches each of them, however long ago it stopped finding anything.
    Kept to check that retiring dead roots changes no forest."""
    g = dec.graph
    in_matching = dec.matching.edges.members
    vertex_class = dec.vertex_class
    class_vertices: dict[int, list[int]] = {}
    for v, c in vertex_class.items():
        class_vertices.setdefault(c, []).append(v)
    per_component = []
    for comp, colours in zip(dec.gm_components, dec.component_colours):
        if not colours:
            raise UnanchoredComponentError("component has no non-matching colour class")
        anchor = min(colours, key=lambda c: min(class_vertices[c]))
        visited = {anchor}
        used: set[int] = set()
        prev_leaves: list[int] = []
        rounds = []
        while len(visited) < len(colours):
            allowed = sorted(
                {v for c in visited for v in class_vertices[c] if v not in used}
                | set(prev_leaves)
            )
            reached: set[int] = set()
            claimed: dict[int, int] = {}
            trees = []
            for r in allowed:
                parent: dict[int, int] = {}
                local = {r}
                local_claims: dict[int, int] = {}
                queue = deque([r])
                while queue:
                    x = queue.popleft()
                    if x != r and x in vertex_class:
                        continue
                    for y, eid in g.adjacency[x].items():
                        if eid in in_matching or y in used or y in reached or y in local:
                            continue
                        cls = vertex_class.get(y)
                        if cls is None:
                            parent[y] = x
                            local.add(y)
                            queue.append(y)
                        elif cls not in visited and cls not in claimed and cls not in local_claims:
                            local_claims[cls] = y
                            parent[y] = x
                            local.add(y)
                reached |= local
                if not local_claims:
                    continue
                keep = {r}
                for leaf in local_claims.values():
                    x = leaf
                    while x not in keep:
                        keep.add(x)
                        x = parent[x]
                raw = RootedTree.build(g, r, {v: parent[v] for v in keep if v != r})
                trees.append(tree_repetition_pairs(raw, dec.colouring, dec.matching))
                claimed.update(local_claims)
                used |= keep
            if not claimed:
                raise AnalysisInvariantError("cascade stalled before reaching every class")
            rounds.append(trees)
            visited |= set(claimed)
            prev_leaves = sorted(claimed.values())
        per_component.append(rounds)
    depth = max((len(r) for r in per_component), default=0)
    forests, tree_pairs = [], []
    for i in range(depth):
        merged = [found for rounds in per_component if i < len(rounds) for found in rounds[i]]
        forests.append(tuple(tree for _, tree in merged))
        tree_pairs.extend(pairs for pairs, _ in merged)
    return RootedForestSeq(g, tuple(forests), tuple(tree_pairs))


def cascade_shape(seq) -> list:
    """Every tree of ``seq``, forest by forest, as its root, each vertex's
    ordered children in postorder, and its pairs."""
    pairs = iter(seq.tree_pairs)
    return [
        [
            (t.root, tuple((v, t.children.get(v, ())) for v in t.postorder), next(pairs))
            for t in forest
        ]
        for forest in seq.forests
    ]


def fig5_copies(k: int, rng: random.Random) -> tuple[Graph, Matching, EdgeColouring]:
    """``k`` disjoint copies of the fig5 instance with its 58-colour
    certificate, under one random vertex relabelling and edge order; each
    copy keeps a palette of its own."""
    from qcolour.instances import fig5_lower_bound

    inst = fig5_lower_bound()
    g0, col0 = inst.graph, inst.certified_colouring
    n0 = g0.n
    label = list(range(n0 * k))
    rng.shuffle(label)
    coloured = [
        ((label[u + n0 * i], label[v + n0 * i]), (i, c))
        for i in range(k)
        for (u, v), c in zip(g0.edges, col0.colour)
    ]
    rng.shuffle(coloured)
    g = Graph(n0 * k, tuple(e for e, _ in coloured))
    m = Matching.from_edge_ids(
        g,
        [
            g.edge_id(label[u + n0 * i], label[v + n0 * i])
            for i in range(k)
            for u, v in (g0.edges[eid] for eid in inst.matching.edges.members)
        ],
    )
    return g, m, EdgeColouring.from_values(g, [c for _, c in coloured])


def deep_path_instance(depth: int, rng: random.Random) -> tuple[Graph, Matching, EdgeColouring]:
    """One path of ``depth`` edges between two one-edge non-matching
    classes; path and pendant matching edges all wear one colour, so the
    cascade grows a single tree of that depth.  Labels are shuffled."""
    n = 2 * depth + 6
    label = list(range(n))
    rng.shuffle(label)
    path, pendant = label[: depth + 1], label[depth + 1 : 2 * depth + 2]
    b1, b1_mate, b2, b2_mate = label[2 * depth + 2 :]
    coloured = [((path[i], path[i + 1]), "a") for i in range(depth)]
    coloured += [((p, q), "a") for p, q in zip(path, pendant)]
    coloured += [((path[0], b1), "x"), ((path[-1], b2), "y")]
    coloured += [((b1, b1_mate), "c1"), ((b2, b2_mate), "c2")]
    rng.shuffle(coloured)
    g = Graph(n, tuple(e for e, _ in coloured))
    matched = [*zip(path, pendant), (b1, b1_mate), (b2, b2_mate)]
    m = Matching.from_edge_ids(g, [g.edge_id(u, v) for u, v in matched])
    return g, m, EdgeColouring.from_values(g, [c for _, c in coloured])


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
    tree = RootedTree.build(g, 0, parent)
    return tree, col, m


def caterpillar_pair_tree(spine: int) -> tuple[RootedTree, EdgeColouring, Matching]:
    """A caterpillar meeting the pairing rules, with ``spine`` spine vertices.

    Root 0 has matching colour A and one child, vertex 1, joined by an
    A edge; vertex 1 also has matching colour A.  Below it hangs a path of
    B edges through the spine vertices ``2 .. spine + 1``, and spine
    vertex ``s`` carries one B leaf ``s + spine``.  Every tree vertex has
    a pendant matching edge; the leaves' carry B, the spine vertices' carry
    pairwise distinct colours other than A and B.  So vertex 1 is the one
    vertex that sees two colours, every leaf pairs below it, and the
    largest leaf ends the spine of that step.
    """
    t = 2 * spine + 2
    parent = {1: 0}
    for s in range(2, spine + 2):
        parent[s] = s - 1
        parent[s + spine] = s
    tree_edges = [(parent[v], v) for v in range(1, t)]
    g = Graph(2 * t, tuple(tree_edges) + tuple((v, t + v) for v in range(t)))
    m = Matching.from_edge_ids(g, range(t - 1, 2 * t - 1))
    a, b = "A", "B"
    edge_colours = [a] + [b] * (t - 2)
    mate_colours = [a, a] + [("spine", s) for s in range(spine)] + [b] * spine
    col = EdgeColouring.from_values(g, edge_colours + mate_colours)
    return RootedTree.build(g, 0, parent), col, m


def random_valid_colouring(g: Graph, rng: random.Random, moves: int) -> EdgeColouring:
    """A random valid q = 2 colouring of ``g`` with connected colour classes.

    Starts from one colour on every edge and takes ``moves`` random
    recolourings: an edge gets a colour already at one of its ends, or a
    fresh one, and the move is kept only if both ends still see at most
    two colours.  Finally each class is split into its connected pieces,
    which keeps the colouring valid and never lowers the colour count.
    """
    colour = [0] * g.m
    seen: list[dict[int, int]] = [{} for _ in range(g.n)]  # colour -> edges at x
    fresh = itertools.count(1)

    def shift(x: int, c: int, delta: int) -> None:
        seen[x][c] = seen[x].get(c, 0) + delta
        if not seen[x][c]:
            del seen[x][c]

    for u, v in g.edges:
        shift(u, 0, 1)
        shift(v, 0, 1)
    for _ in range(moves):
        eid = rng.randrange(g.m)
        u, v = g.edges[eid]
        old = colour[eid]
        near = sorted((seen[u].keys() | seen[v].keys()) - {old})
        new = rng.choice(near) if near and rng.random() < 0.7 else next(fresh)
        for x in (u, v):
            shift(x, old, -1)
            shift(x, new, 1)
        if len(seen[u]) > 2 or len(seen[v]) > 2:
            for x in (u, v):
                shift(x, new, -1)
                shift(x, old, 1)
        else:
            colour[eid] = new

    # Split each class into its connected pieces: union-find over
    # (vertex, colour) nodes, one union per edge.
    up: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x: tuple[int, int]) -> tuple[int, int]:
        while up.get(x, x) != x:
            x = up[x]
        return x

    for eid, (u, v) in enumerate(g.edges):
        a, b = find((u, colour[eid])), find((v, colour[eid]))
        if a != b:
            up[a] = b
    return EdgeColouring.from_values(
        g, [find((u, colour[eid])) for eid, (u, _) in enumerate(g.edges)]
    )


def merge_disjoint_classes(
    col: EdgeColouring, m: Matching, rng: random.Random
) -> tuple[EdgeColouring, int, bool] | None:
    """Merge two vertex-disjoint colour classes of one kind (both matching
    colours or both non-matching), picked by ``rng``.

    No vertex sees both merged classes, so a valid colouring stays valid,
    and the merged class is disconnected.  Returns ``(colouring, colour,
    is_matching)`` with the merged class's canonical colour, or ``None``
    when no two classes qualify.
    """
    g = col.graph
    verts: list[set[int]] = [set() for _ in range(col.num_colours)]
    for eid, c in enumerate(col.colour):
        verts[c].update(g.edges[eid])
    matching = {col.colour[eid] for eid in m.edges.members}
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(col.num_colours), 2)
        if (a in matching) == (b in matching) and not verts[a] & verts[b]
    ]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    merged = EdgeColouring.from_values(g, [a if c == b else c for c in col.colour])
    # a < b, so the merged class first appears at a's first edge.
    return merged, merged.colour[col.colour.index(a)], a in matching


def root_climb_path(tree: RootedTree, u: int, v: int) -> tuple[int, ...]:
    """The u-v path of ``tree`` by listing every ancestor of ``u`` up to the
    root, then climbing from ``v`` to the first of them.  Costs the depth of
    ``u``; only a reference for :meth:`RootedTree.path`."""
    anc_u = [u]
    x = u
    while x != tree.root:
        x = tree.parent[x]
        anc_u.append(x)
    pos = {x: i for i, x in enumerate(anc_u)}
    down = [v]
    x = v
    while x not in pos:
        x = tree.parent[x]
        down.append(x)
    return tuple(anc_u[: pos[x]]) + tuple(reversed(down))


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


# A reference copy of the text parsers as they read one line at a time:
# each line is read, then checked, before the next is read.  On a document
# with one fault, the real parsers must return an equal object or raise the
# same error with the same message.


def line_records(text: str, width: int, error: type[ValueError], shape: str, first_shape=None):
    """Yield ``(line number, fields)`` per record, raising on the first
    malformed line when the reader reaches it."""
    expected = first_shape or shape
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            record = (*map(int, fields),)
        except ValueError:
            record = ()
        if len(record) != width:
            raise error(f"line {lineno}: {expected}, got {raw!r}")
        yield lineno, record
        expected = shape


def line_parse_graph(text: str) -> Graph:
    records = line_records(
        text, 2, GraphFormatError, "edge must be 'u v'", "header must be 'n m'"
    )
    header = next(records, None)
    if header is None:
        raise GraphFormatError("line 1: missing 'n m' header")
    lineno, (n, m) = header
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative count in header")
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}"
        )
    lines: list[int] = []
    edges: list[tuple[int, ...]] = []
    for lineno, edge in records:
        if len(edges) == m:
            raise GraphFormatError(f"line {lineno}: more than {m} edges")
        lines.append(lineno)
        edges.append(edge)
    if len(edges) != m:
        raise GraphFormatError(
            f"line {len(text.splitlines()) + 1}: expected {m} edges, got {len(edges)}"
        )
    try:
        return Graph(n, tuple(edges))
    except InvalidEdgeError as exc:
        raise GraphFormatError(f"line {lines[exc.eid]}: {exc}") from None


def line_parse_matching(text: str, g: Graph) -> Matching:
    ids: set[int] = set()
    covered = bytearray(g.n)
    for lineno, (u, v) in line_records(
        text, 2, MatchingFormatError, "matching edge must be 'u v'"
    ):
        eid = g.edge_id(u, v)
        if eid is None:
            raise MatchingFormatError(f"line {lineno}: ({u}, {v}) is not a graph edge")
        if eid in ids:
            raise MatchingFormatError(f"line {lineno}: edge ({u}, {v}) listed twice")
        if covered[u] or covered[v]:
            raise MatchingFormatError(
                f"line {lineno}: edge ({u}, {v}) shares a vertex with another matching edge"
            )
        ids.add(eid)
        covered[u] = covered[v] = 1
    return Matching.from_edge_ids(g, ids)


def line_parse_colouring(text: str, g: Graph) -> EdgeColouring:
    values: list[int] = []
    edges = g.edges
    for lineno, (u, v, c) in line_records(
        text, 3, ColouringFormatError, "expected 'u v colour'"
    ):
        eid = len(values)
        if eid >= len(edges):
            raise ColouringFormatError(f"line {lineno}: more than {g.m} edges")
        edge = edges[eid]
        if (u, v) != edge and (v, u) != edge:
            raise ColouringFormatError(
                f"line {lineno}: expected edge {eid} = {edge}, got ({u}, {v})"
            )
        if c < 0:
            raise ColouringFormatError(f"line {lineno}: negative colour {c}")
        values.append(c)
    if len(values) != g.m:
        raise ColouringFormatError(
            f"line {len(text.splitlines()) + 1}: expected one line per edge ({g.m}), "
            f"got {len(values)}"
        )
    return EdgeColouring.from_values(g, values)
