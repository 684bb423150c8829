"""Cascading sequences of rooted forests linking non-matching colour classes.

Within one component of G minus M carrying non-matching classes H_1..H_k, the
builder grows forests in rounds: the first is rooted inside one anchor class,
and each later one is rooted at vertices of already-reached classes (a new
root may reuse a leaf of the round before, nothing else).  Trees extend only
along non-matching edges, pass only through vertices lying in no class, and
stop the moment they touch an unreached class — that contact vertex becomes a
leaf, one per class per round.  Consequently every class except the anchor is
claimed exactly once, so the total leaf count over the sequence is k - 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..graph import Graph
from .decompose import (
    AnalysisInvariantError,
    ColourDecomposition,
    UnanchoredComponentError,
)


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree on a subset of a graph's vertices.

    ``children`` is the tree's shape: the ordered children of each vertex
    (a vertex without an entry has none).  ``parent`` and ``parent_edge``
    (the graph edge from a vertex to its parent) are derived from it, and
    so is ``postorder``, the per-tree vertex order: children precede
    parents and the root comes last, so larger index means closer to the
    root.  Raises ``ValueError`` when ``root`` is not a vertex of ``graph``
    or ``children`` is not a tree on edges of ``graph`` hanging from it.
    """

    graph: Graph
    root: int
    children: dict[int, tuple[int, ...]]
    parent: dict[int, int] = field(init=False, repr=False, compare=False)
    parent_edge: dict[int, int] = field(init=False, repr=False, compare=False)
    postorder: tuple[int, ...] = field(init=False)
    index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.root < self.graph.n:
            raise ValueError(f"root {self.root} is not a vertex of the graph")
        parent: dict[int, int] = {}
        parent_edge: dict[int, int] = {}
        post: list[int] = []
        stack: list[tuple[int, int]] = [(self.root, 0)]
        while stack:
            v, i = stack.pop()
            kids = self.children.get(v, ())
            if i < len(kids):
                c = kids[i]
                if c == self.root or c in parent:
                    raise ValueError(f"vertex {c} is reached twice from the root")
                eid = self.graph.edge_id(c, v)
                if eid is None:
                    raise ValueError(f"no edge joins {c} to its parent {v}")
                parent[c] = v
                parent_edge[c] = eid
                stack.append((v, i + 1))
                stack.append((c, 0))
            else:
                post.append(v)
        if not self.children.keys() <= parent.keys() | {self.root}:
            raise ValueError("some vertex is cut off from the root")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "parent_edge", parent_edge)
        object.__setattr__(self, "postorder", tuple(post))
        object.__setattr__(self, "index", {v: i for i, v in enumerate(post)})

    @classmethod
    def build(cls, graph: Graph, root: int, parent: dict[int, int]) -> RootedTree:
        """Assemble a tree from parent pointers, children in vertex-id order."""
        kids: dict[int, list[int]] = {v: [] for v in (*parent, root)}
        for v, p in parent.items():
            kids.setdefault(p, []).append(v)
        return cls(graph, root, {v: tuple(sorted(lst)) for v, lst in kids.items()})

    def reordered(self, last: dict[int, int]) -> RootedTree:
        """This tree with child ``last[v]`` moved to the end of the children
        of ``v``, for each ``v`` in ``last``; ``self`` when nothing moves.
        Raises ``ValueError`` when some ``last[v]`` is not a child of ``v``."""
        if all(self.children.get(v, ())[-1:] == (t,) for v, t in last.items()):
            return self
        kids = dict(self.children)
        for v, t in last.items():
            if self.parent.get(t) != v:
                raise ValueError(f"vertex {t} is not a child of {v}")
            kids[v] = tuple(c for c in kids[v] if c != t) + (t,)
        return RootedTree(self.graph, self.root, kids)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.postorder)

    def leaves(self) -> tuple[int, ...]:
        return tuple(
            sorted(v for v in self.postorder if v != self.root and not self.children.get(v))
        )

    def path(self, u: int, v: int) -> tuple[int, ...]:
        """Vertices of the unique u-v path in the tree, endpoints included.

        Climbs whichever end has the smaller postorder index until the two
        meet: that end cannot be an ancestor of the other, whose ancestors
        all have larger indices, so the cost is the length of the path.
        """
        index, parent = self.index, self.parent
        up, down = [u], [v]
        x, y = u, v
        while x != y:
            if index[x] < index[y]:
                x = parent[x]
                up.append(x)
            else:
                y = parent[y]
                down.append(y)
        # Both lists end at the meeting vertex.
        return tuple(up) + tuple(reversed(down[:-1]))

    def preceq(self, x: int, y: int) -> bool:
        """Per-tree order: larger postorder index is closer to the root."""
        return self.index[x] <= self.index[y]


@dataclass(frozen=True)
class RootedForestSeq:
    """A sequence of forests F_1..F_t whose consecutive members may share only
    a root-at-a-leaf vertex, with members two or more apart fully disjoint.

    ``tree_pairs[i]`` holds the repetition pairs of the i-th tree of
    :meth:`trees`, one per leaf, as :func:`tree_repetition_pairs` found them.

    The partial order ``preceq`` is the transitive closure of the per-tree
    postorders, glued at shared vertices.  Each vertex sits below the root of
    at most one tree, its *home* (a vertex that is only ever a root is at
    home in its own tree), and each root is a leaf of at most one earlier
    tree, its *glue*.  So ``x`` precedes ``y`` exactly when a tree on the
    climb from x's home through the glues holds ``y`` at or above the point
    where the climb entered it.
    """

    graph: Graph
    forests: tuple[tuple[RootedTree, ...], ...]
    tree_pairs: tuple[tuple[tuple[int, int], ...], ...]
    _trees: tuple[RootedTree, ...] = field(init=False, repr=False, compare=False)
    _home: dict[int, int] = field(init=False, repr=False, compare=False)
    _glue: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        trees = tuple(tree for forest in self.forests for tree in forest)
        rounds = [i for i, forest in enumerate(self.forests) for _ in forest]
        if len(self.tree_pairs) != len(trees):
            raise ValueError("one pair list per tree")
        roots = {tree.root: t for t, tree in enumerate(trees)}
        home = {v: t for t, tree in enumerate(trees) for v in tree.postorder[:-1]}
        if len(roots) != len(trees):
            raise ValueError("two trees share a root")
        if len(home) != sum(len(tree.parent) for tree in trees):
            raise ValueError("two trees share a non-root vertex")
        glue = tuple(home.get(tree.root) for tree in trees)
        for t, up in enumerate(glue):
            # Glues only point back in the sequence, so the order is acyclic.
            if up is not None and rounds[up] >= rounds[t]:
                raise ValueError("a root may only reuse a leaf of an earlier forest")
        object.__setattr__(self, "_trees", trees)
        object.__setattr__(self, "_home", roots | home)
        object.__setattr__(self, "_glue", glue)

    def trees(self) -> tuple[RootedTree, ...]:
        return self._trees

    def preceq(self, x: int, y: int) -> bool:
        t = self._home.get(x)
        if t is None:
            return False
        pos = self._trees[t].index[x]
        while True:
            tree = self._trees[t]
            if tree.index.get(y, -1) >= pos:
                return True
            t = self._glue[t]
            if t is None:
                return False
            pos = self._trees[t].index[tree.root]

    def maximal_elements(self, vertices) -> tuple[int, ...]:
        vs = sorted(set(vertices))
        return tuple(
            x for x in vs if not any(y != x and self.preceq(x, y) for y in vs)
        )


def build_cascading_sequence(dec: ColourDecomposition) -> RootedForestSeq:
    """Construct the forest sequence realizing the leaf-count identity
    (k_i - 1 leaves per component).  Each tree is ordered and paired by one
    :func:`tree_repetition_pairs` call as it is grown; the sequence keeps
    both the ordered tree and its pairs.

    Components are processed independently and their rounds merged
    positionally — trees from different components are vertex-disjoint, so
    the cascading conditions are preserved.  Raises
    :class:`UnanchoredComponentError` on a component with k_i = 0, and
    :class:`AnalysisInvariantError` if a round reaches no new class.
    """
    from .repetition import tree_repetition_pairs

    g = dec.graph
    in_matching = dec.matching.edges.members
    vertex_class = dec.vertex_class
    class_vertices: dict[int, list[int]] = {}
    for v, c in vertex_class.items():
        class_vertices.setdefault(c, []).append(v)
    # Per component, per round: the (pairs, ordered tree) of every tree grown.
    per_component: list[list[list[tuple]]] = []

    for comp, colours in zip(dec.gm_components, dec.component_colours):
        if not colours:
            raise UnanchoredComponentError(
                f"component with vertices {comp.vertices[:4]}... has no "
                "non-matching colour class"
            )
        anchor = min(colours, key=lambda c: min(class_vertices[c]))
        visited = {anchor}
        used: set[int] = set()
        prev_leaves: list[int] = []
        rounds: list[list[tuple]] = []

        while len(visited) < len(colours):
            allowed = sorted(
                {
                    v
                    for c in visited
                    for v in class_vertices[c]
                    if v not in used
                }
                | set(prev_leaves)
            )
            reached: set[int] = set()
            claimed: dict[int, int] = {}
            trees: list[tuple] = []
            for r in allowed:
                parent: dict[int, int] = {}
                local = {r}
                local_claims: dict[int, int] = {}
                queue: deque[int] = deque([r])
                while queue:
                    x = queue.popleft()
                    if x != r and x in vertex_class:
                        continue  # a claimed leaf ends its branch
                    for y, eid in g.adjacency[x]:
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
                    continue  # nothing new reachable from here; vertices stay free
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
    forests: list[tuple[RootedTree, ...]] = []
    tree_pairs: list[tuple[tuple[int, int], ...]] = []
    for i in range(depth):
        merged = [found for rounds in per_component if i < len(rounds) for found in rounds[i]]
        forests.append(tuple(tree for _, tree in merged))
        tree_pairs.extend(pairs for pairs, _ in merged)
    return RootedForestSeq(graph=g, forests=tuple(forests), tree_pairs=tuple(tree_pairs))
