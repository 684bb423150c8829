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
from .decompose import ColourDecomposition, UnanchoredComponentError


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree on a subset of a graph's vertices.

    ``postorder`` is derived from ``children`` and fixes the per-tree vertex
    order: children precede parents and the root comes last, so larger index
    means closer to the root.
    """

    graph: Graph
    root: int
    parent: dict[int, int]
    parent_edge: dict[int, int]
    children: dict[int, tuple[int, ...]]
    postorder: tuple[int, ...] = field(init=False)
    index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        assert self.root not in self.parent
        assert self.parent_edge.keys() == self.parent.keys()
        for v, p in self.parent.items():
            u, w = self.graph.edges[self.parent_edge[v]]
            assert {u, w} == {v, p}
        for p, kids in self.children.items():
            for c in kids:
                assert self.parent.get(c) == p, "children disagree with parent pointers"
        post: list[int] = []
        stack: list[tuple[int, int]] = [(self.root, 0)]
        while stack:
            v, i = stack.pop()
            kids = self.children.get(v, ())
            if i < len(kids):
                stack.append((v, i + 1))
                stack.append((kids[i], 0))
            else:
                post.append(v)
        assert len(post) == len(self.parent) + 1, "some vertex is cut off from the root"
        object.__setattr__(self, "postorder", tuple(post))
        object.__setattr__(self, "index", {v: i for i, v in enumerate(post)})

    @classmethod
    def build(
        cls,
        graph: Graph,
        root: int,
        parent: dict[int, int],
        parent_edge: dict[int, int],
    ) -> RootedTree:
        """Assemble a tree from parent pointers, children in vertex-id order."""
        kids: dict[int, list[int]] = {v: [] for v in list(parent) + [root]}
        for v, p in parent.items():
            kids[p].append(v)
        children = {v: tuple(sorted(lst)) for v, lst in kids.items()}
        return cls(graph, root, dict(parent), dict(parent_edge), children)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.postorder)

    def leaves(self) -> tuple[int, ...]:
        return tuple(
            sorted(v for v in self.postorder if v != self.root and not self.children[v])
        )

    def path(self, u: int, v: int) -> tuple[int, ...]:
        """Vertices of the unique u-v path in the tree, endpoints included."""
        anc_u = [u]
        x = u
        while x != self.root:
            x = self.parent[x]
            anc_u.append(x)
        pos = {x: i for i, x in enumerate(anc_u)}
        down = [v]
        x = v
        while x not in pos:
            x = self.parent[x]
            down.append(x)
        return tuple(anc_u[: pos[x]]) + tuple(reversed(down))

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
        assert len(self.tree_pairs) == len(trees), "one pair list per tree"
        roots = {tree.root: t for t, tree in enumerate(trees)}
        home = {v: t for t, tree in enumerate(trees) for v in tree.postorder[:-1]}
        assert len(roots) == len(trees), "two trees share a root"
        assert len(home) == sum(len(tree.parent) for tree in trees), (
            "two trees share a non-root vertex"
        )
        glue = tuple(home.get(tree.root) for tree in trees)
        for t, up in enumerate(glue):
            # Glues only point back in the sequence, so the order is acyclic.
            assert up is None or rounds[up] < rounds[t], (
                "a root may only reuse a leaf of an earlier forest"
            )
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
    :class:`UnanchoredComponentError` on a component with k_i = 0.
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
                parent_edge: dict[int, int] = {}
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
                            parent_edge[y] = eid
                            local.add(y)
                            queue.append(y)
                        elif cls not in visited and cls not in claimed and cls not in local_claims:
                            local_claims[cls] = y
                            parent[y] = x
                            parent_edge[y] = eid
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
                raw = RootedTree.build(
                    g,
                    r,
                    {v: parent[v] for v in keep if v != r},
                    {v: parent_edge[v] for v in keep if v != r},
                )
                trees.append(tree_repetition_pairs(raw, dec.colouring, dec.matching))
                claimed.update(local_claims)
                used |= keep
            assert claimed, "cascade stalled before reaching every class"
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
