"""Repetition structure of matching colours along paths and trees.

A colour class that belongs to the matching contributes one colour for
possibly many matching edges.  The functions here measure that reuse:
``path_repetition`` walks a path whose ends are anchored at their own
matching colours and locates two vertices that share one, while
``tree_repetition_pairs`` performs the same extraction on a whole rooted
tree, producing one pair per leaf.  ``repetition_content`` counts how
often a vertex set repeats matching edges.
"""

from __future__ import annotations

from ..colouring import EdgeColouring
from ..matching import Matching
# matched_colour_map is not called here; bench/tracing.py probes it here.
from .decompose import AnalysisInvariantError, matched_colour_map  # noqa: F401
from .forests import RootedTree

__all__ = [
    "path_repetition",
    "repetition_content",
    "tree_repetition_pairs",
]


def path_repetition(
    path: tuple[int, ...],
    col: EdgeColouring,
    m: Matching,
) -> tuple[int, int]:
    """Find two path positions whose vertices share a matching colour.

    ``path`` must be a simple path avoiding matching edges, with every
    vertex matched and each end's first edge coloured like that end's
    matching edge.  Returns indices ``(i, j)`` with ``i < j`` such that
    the matching edges of ``path[i]`` and ``path[j]`` have the same
    colour.
    """
    g = col.graph
    if m.graph is not g:
        raise ValueError("matching and colouring refer to different graphs")
    if len(path) < 2:
        raise ValueError("path must contain at least one edge")
    if len(set(path)) != len(path):
        raise ValueError("path vertices must be distinct")
    for v in path:
        if m.mate[v] is None:
            raise ValueError(f"vertex {v} is not matched")
    edge_ids = []
    for a, b in zip(path, path[1:]):
        eid = g.edge_id(a, b)
        if eid is None:
            raise ValueError(f"no edge between {a} and {b}")
        if eid in m.edges.members:
            raise ValueError("path may not use matching edges")
        edge_ids.append(eid)

    def mcl(v: int) -> int:
        return col.colour[m.matched_edge(v)]

    if col.colour[edge_ids[0]] != mcl(path[0]):
        raise ValueError("first edge must carry the start's matching colour")
    if col.colour[edge_ids[-1]] != mcl(path[-1]):
        raise ValueError("last edge must carry the end's matching colour")

    last = len(path) - 1
    base = 0
    while True:
        a = col.colour[edge_ids[base]]
        j = base + 1
        while j < last and col.colour[edge_ids[j]] == a:
            j += 1
        if j == last and col.colour[edge_ids[last - 1]] == a:
            # The whole remaining stretch is monochromatic; its colour is
            # the end's matching colour, matching the start of the stretch.
            return base, last
        if mcl(path[j]) == a:
            return base, j
        if col.colour[edge_ids[j]] != mcl(path[j]):
            raise ValueError(
                f"vertex {path[j]} sees three colours; the colouring is not valid"
            )
        base = j


def repetition_content(
    vertices: frozenset[int] | set[int],
    m: Matching,
    col: EdgeColouring,
) -> int:
    """Number of repeated matching edges inside a monochromatic support.

    The matching edges incident to ``vertices`` must all carry one
    colour.  The content is the number of those edges beyond the first;
    it always lies between ``(|vertices| - 2) / 2`` and
    ``|vertices| - 1``.
    """
    if not vertices:
        raise ValueError("vertex set must be nonempty")
    ids = set()
    for v in vertices:
        eid = m.matched_edge(v)
        if eid is None:
            raise ValueError(f"vertex {v} is not matched")
        ids.add(eid)
    colours = {col.colour[eid] for eid in ids}
    if len(colours) != 1:
        raise ValueError("matching edges of the set are not monochromatic")
    return len(ids) - 1


def tree_repetition_pairs(
    tree: RootedTree,
    col: EdgeColouring,
    m: Matching,
) -> tuple[tuple[tuple[int, int], ...], RootedTree]:
    """Extract one matching-colour pair per leaf of a rooted tree.

    Requires every vertex matched, every edge at the root coloured with
    the root's matching colour, and every leaf's parent edge coloured
    with that leaf's matching colour.  Returns ``(pairs, ordered)``
    where each pair ``(u, v)`` shares one matching colour, the first
    coordinates are pairwise distinct, there is exactly one pair per
    leaf, the pairs come sorted, and ``ordered`` is the same tree with
    children arranged so that in post-order every pair lists ``u``
    before ``v`` (``tree`` itself when its own order already does).

    The pairs are found in one walk over ``tree.postorder``.  Children
    come before their parents, so when the walk reaches a vertex that
    sees two colours, everything still below it sees one; the step there
    pairs leaves below it and deletes the branches they hang from.  The
    tree left after the walk is monochromatic, and each of its leaves
    pairs upward to the nearest ancestor of the tree colour.

    Raises ``ValueError`` when a precondition fails or some vertex sees
    three colours, and :class:`AnalysisInvariantError` when the pairs
    break a guarantee above.
    """
    g = tree.graph
    if col.graph is not g or m.graph is not g:
        raise ValueError("tree, colouring and matching refer to different graphs")
    verts = tree.vertices
    if len(verts) < 2:
        raise ValueError("tree must contain at least one edge")
    mcl: dict[int, int] = {}
    for v in verts:
        eid = m.matched_edge(v)
        if eid is None:
            raise ValueError(f"vertex {v} is not matched")
        mcl[v] = col.colour[eid]

    root = tree.root
    for child in tree.children.get(root, ()):
        if col.colour[tree.parent_edge[child]] != mcl[root]:
            raise ValueError(
                "every edge at the root must carry the root's matching colour"
            )
    for leaf in tree.leaves():
        if col.colour[tree.parent_edge[leaf]] != mcl[leaf]:
            raise ValueError(
                f"the edge at leaf {leaf} must carry the leaf's matching colour"
            )

    # Alive children per vertex; subtrees are deleted bottom-up as pairs are found.
    parent = tree.parent
    children: dict[int, list[int]] = {v: list(tree.children.get(v, ())) for v in verts}
    ecol = {v: col.colour[eid] for v, eid in tree.parent_edge.items()}
    alive = set(verts)
    pairs: list[tuple[int, int]] = []
    spine_last: dict[int, int] = {}

    def colours_at(v: int) -> set[int]:
        seen = {ecol[c] for c in children[v]}
        if v != root:
            seen.add(ecol[v])
        return seen

    def below(top: int) -> list[int]:
        out: list[int] = []
        stack = list(children[top])
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(children[x])
        return out

    def delete_subtree(top: int) -> None:
        alive.difference_update(below(top))
        alive.discard(top)
        children[parent[top]].remove(top)

    def mono_pair(u: int, a: int) -> tuple[int, int]:
        # Nearest strict ancestor of u whose matching edge carries colour a.
        x = parent[u]
        while mcl[x] != a:
            x = parent[x]
        return (u, x)

    for v in verts:
        if len(colours_at(v)) > 2:
            raise ValueError(f"vertex {v} sees three tree colours")

    for v in tree.postorder:
        while v in alive:
            seen = colours_at(v)
            if len(seen) < 2:
                break
            # The root sees only its own matching colour, so v is not the root.
            a = mcl[v]
            if a not in seen:
                raise ValueError(
                    f"vertex {v} sees three colours; the colouring is not valid"
                )
            (b,) = seen - {a}
            a_children = [c for c in children[v] if ecol[c] == a]
            b_children = [c for c in children[v] if ecol[c] == b]

            if a_children:
                # Branches below v coloured a are monochromatic (the walk has
                # passed them), so each of their leaves pairs to an ancestor
                # with matching colour a; v itself qualifies.
                for c in a_children:
                    for u in [c, *below(c)]:
                        if not children[u]:
                            pairs.append(mono_pair(u, a))
                if b_children:
                    for c in a_children:
                        delete_subtree(c)
                else:
                    # v's parent edge carries b.  Drop v with the chain of
                    # one-child ancestors above it.
                    drop = v
                    while parent[drop] != root and len(children[parent[drop]]) == 1:
                        drop = parent[drop]
                    delete_subtree(drop)
                continue

            # No child edge below v carries a: the second colour comes from
            # below via b, and the parent edge carries a.  The walk has
            # passed the branches below, so they and their leaves' matching
            # edges are all coloured b.
            sub = below(v)
            leaves_b = [x for x in sub if not children[x]]
            w = max(leaves_b)
            spine = [w]
            while spine[-1] != v:
                spine.append(parent[spine[-1]])
            spine.reverse()  # v ... w
            # The step deletes the spine below v and leaves v a leaf, so no
            # later spine gives a vertex here a second successor.
            spine_last.update(zip(spine, spine[1:]))
            on_spine = {x: i for i, x in enumerate(spine)}
            for u in leaves_b:
                if u == w:
                    continue
                # Walk from u towards v until the spine, then down to w; the
                # first vertex after u with matching colour b is the partner.
                up = [u]
                while up[-1] not in on_spine:
                    up.append(parent[up[-1]])
                walk = up[1:] + spine[on_spine[up[-1]] + 1 :]
                partner = next(x for x in walk if mcl[x] == b)
                pairs.append((u, partner))
            for c in list(children[v]):
                delete_subtree(c)

    if children[root]:
        # Monochromatic remainder: every leaf pairs upward to the nearest
        # ancestor carrying the (single) tree colour.
        a = mcl[root]
        for u in below(root):
            if not children[u]:
                pairs.append(mono_pair(u, a))

    if len(pairs) != len(tree.leaves()):
        raise AnalysisInvariantError("one pair per original leaf")
    ordered = tree.reordered(spine_last)
    if not all(ordered.preceq(u, x) for u, x in pairs):
        raise AnalysisInvariantError("pairs must respect the post-order")
    return tuple(sorted(pairs)), ordered
