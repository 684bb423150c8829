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

from .._record import Record
from ..graph import Graph
from .decompose import (
    AnalysisInvariantError,
    ColourDecomposition,
    UnanchoredComponentError,
)


class RootedTree(Record):
    """A rooted tree on a subset of a graph's vertices.

    ``children`` is the tree's shape: the ordered children of each vertex
    (a vertex without an entry has none).  ``parent`` is derived from it,
    and so is ``postorder``, the per-tree vertex order: children precede
    parents and the root comes last, so larger index means closer to the
    root.  ``parent_edge`` maps each non-root vertex to the id of the graph
    edge to its parent, looked up with :meth:`Graph.edge_id`.  Of the
    derived fields only ``postorder`` is compared and shown.  Raises
    ``ValueError`` when ``root`` is not a vertex of ``graph`` or
    ``children`` is not a tree on edges of ``graph`` hanging from it.
    """

    _eq = _hash = _repr = ("graph", "root", "children", "postorder")

    graph: Graph
    root: int
    children: dict[int, tuple[int, ...]]
    postorder: tuple[int, ...]
    parent: dict[int, int]
    parent_edge: dict[int, int]
    index: dict[int, int]

    def __init__(self, graph, root, children) -> None:
        if not 0 <= root < graph.n:
            raise ValueError(f"root {root} is not a vertex of the graph")
        parent: dict[int, int] = {}
        parent_edge: dict[int, int] = {}
        # A preorder that enters the last child first; reversed, it lists
        # every subtree in child order before its root.  Each vertex's
        # children are checked when it is popped, before any is entered.
        pre: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            pre.append(v)
            for c in children.get(v, ()):
                if c == root or c in parent:
                    raise ValueError(f"vertex {c} is reached twice from the root")
                eid = graph.edge_id(c, v)
                if eid is None:
                    raise ValueError(f"no edge joins {c} to its parent {v}")
                parent[c] = v
                parent_edge[c] = eid
                stack.append(c)
        post = pre[::-1]
        if not children.keys() <= parent.keys() | {root}:
            raise ValueError("some vertex is cut off from the root")
        index = {v: i for i, v in enumerate(post)}
        super().__init__(graph, root, children, tuple(post), parent, parent_edge, index)

    @classmethod
    def build(cls, graph: Graph, root: int, parent: dict[int, int]) -> RootedTree:
        """Assemble a tree from parent pointers, children in vertex-id order."""
        kids: dict[int, list[int]] = {root: []}
        for v in sorted(parent):
            kids.setdefault(v, [])
            kids.setdefault(parent[v], []).append(v)
        return cls(graph, root, {v: tuple(lst) for v, lst in kids.items()})

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


class RootedForestSeq(Record):
    """A sequence of forests F_1..F_t whose consecutive members may share only
    a root-at-a-leaf vertex, with members two or more apart fully disjoint.

    ``tree_pairs[i]`` holds the repetition pairs of the i-th tree of
    :meth:`trees`, one per leaf, as :func:`tree_repetition_pairs` found them.

    Raises ``ValueError`` unless there is one pair list per tree, no two
    trees share a root or a non-root vertex, and a root that is a non-root
    vertex of another tree is a leaf of that tree, which lies in the forest
    just before the root's own.  So the per-tree postorders, glued at
    shared vertices, form an acyclic order.
    """

    _eq = _hash = _repr = ("graph", "forests", "tree_pairs")

    graph: Graph
    forests: tuple[tuple[RootedTree, ...], ...]
    tree_pairs: tuple[tuple[tuple[int, int], ...], ...]
    _trees: tuple[RootedTree, ...]

    def __init__(self, graph, forests, tree_pairs) -> None:
        trees = tuple(tree for forest in forests for tree in forest)
        rounds = [i for i, forest in enumerate(forests) for _ in forest]
        if len(tree_pairs) != len(trees):
            raise ValueError("one pair list per tree")
        roots = {tree.root for tree in trees}
        home = {v: t for t, tree in enumerate(trees) for v in tree.postorder[:-1]}
        if len(roots) != len(trees):
            raise ValueError("two trees share a root")
        if len(home) != sum(len(tree.parent) for tree in trees):
            raise ValueError("two trees share a non-root vertex")
        for t, tree in enumerate(trees):
            up = home.get(tree.root)
            # A glue points at a leaf one forest back, so the order is acyclic
            # and forests two or more apart share no vertex.
            if up is not None and (
                rounds[up] != rounds[t] - 1 or trees[up].children.get(tree.root)
            ):
                raise ValueError("a root may only reuse a leaf of the immediately earlier forest")
        super().__init__(graph, forests, tree_pairs, trees)

    def trees(self) -> tuple[RootedTree, ...]:
        return self._trees


def build_cascading_sequence(dec: ColourDecomposition) -> RootedForestSeq:
    """Construct the forest sequence realizing the leaf-count identity
    (k_i - 1 leaves per component).  Each tree is built once, from the
    parent pointers its search set, then ordered and paired by one
    :func:`tree_repetition_pairs` call; the sequence keeps both the ordered
    tree and its pairs.

    A round searches from its *live roots* and from the leaves of the round
    before, in vertex order.  The live roots are the vertices of visited
    classes that no tree uses yet, less the dead ones: a root is dead once
    each of its non-matching neighbours is used or lies in a visited class,
    and it is retired for good.  That is sound.  ``used`` and ``visited``
    only grow, so a dead root stays dead, and its search would find no
    neighbour to enter and add only the root itself to ``reached``.  A root
    lies in a visited class, and no search enters a vertex of one, so
    skipping it changes neither ``reached`` nor any later tree.

    Components are processed one after another, each appending its i-th
    round's trees to the sequence's i-th forest: trees from different
    components are vertex-disjoint, so the cascading conditions are
    preserved.  Raises :class:`UnanchoredComponentError` on a component
    with k_i = 0, and :class:`AnalysisInvariantError` if a round reaches no
    new class.
    """
    from . import repetition  # not at the top: it imports this module

    g = dec.graph
    adjacency = g.adjacency
    in_matching = dec.matching.edges.members
    vertex_class = dec.vertex_class
    class_vertices: dict[int, list[int]] = {}
    for v, c in vertex_class.items():
        class_vertices.setdefault(c, []).append(v)
    # Per round, over all components: the (pairs, ordered tree) of every tree.
    rounds: list[list[tuple]] = []

    for comp, colours in zip(dec.gm_components, dec.component_colours):
        if not colours:
            more = "..." if len(comp.vertices) > 4 else ""
            raise UnanchoredComponentError(
                f"component with vertices {comp.vertices[:4]}{more} has no "
                "non-matching colour class"
            )
        anchor = min(colours, key=lambda c: min(class_vertices[c]))
        visited = {anchor}
        used: set[int] = set()
        live = set(class_vertices[anchor])
        prev_leaves: list[int] = []
        depth = 0

        while len(visited) < len(colours):
            if depth == len(rounds):
                rounds.append([])
            trees = rounds[depth]
            depth += 1
            reached: set[int] = set()
            claimed: dict[int, int] = {}
            # Each vertex is reached at most once per round, by one search.
            up: dict[int, int] = {}
            for r in sorted(live.union(prev_leaves)):
                for y, eid in adjacency[r].items():
                    if not (eid in in_matching or y in used or vertex_class.get(y) in visited):
                        break
                else:
                    live.discard(r)  # dead
                    continue
                reached.add(r)
                claims: dict[int, int] = {}
                # Only r and vertices in no class are queued: a claimed
                # leaf ends its branch.
                queue = [r]
                for x in queue:
                    for y, eid in adjacency[x].items():
                        if eid in in_matching or y in used or y in reached:
                            continue
                        cls = vertex_class.get(y)
                        if cls is None:
                            queue.append(y)
                        elif cls in visited or cls in claimed or cls in claims:
                            continue
                        else:
                            claims[cls] = y
                        up[y] = x
                        reached.add(y)
                if not claims:
                    continue  # nothing new reachable from here; vertices stay free
                tree_up: dict[int, int] = {}
                for x in claims.values():
                    while x != r and x not in tree_up:
                        tree_up[x] = up[x]
                        x = up[x]
                raw = RootedTree.build(g, r, tree_up)
                trees.append(repetition.tree_repetition_pairs(raw, dec.colouring, dec.matching))
                claimed.update(claims)
                used.add(r)
                used.update(tree_up)
                live.discard(r)
            if not claimed:
                raise AnalysisInvariantError("cascade stalled before reaching every class")
            visited.update(claimed)
            prev_leaves = list(claimed.values())
            # A newly reached class has no used vertex but its leaf.
            for c in claimed:
                live.update(class_vertices[c])
            live.difference_update(prev_leaves)

    # Through a list, so each tuple is made at its final length: one resized
    # from a generator left the resident set growing over many requests.
    forests = tuple([tuple([tree for _, tree in trees]) for trees in rounds])
    tree_pairs = tuple([pairs for trees in rounds for pairs, _ in trees])
    return RootedForestSeq(graph=g, forests=forests, tree_pairs=tree_pairs)
