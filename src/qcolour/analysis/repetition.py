"""Repetition structure of matching colours along rooted trees.

A colour class that belongs to the matching contributes one colour for
possibly many matching edges.  The functions here measure that reuse:
``tree_repetition_pairs`` locates vertices that share a matching colour
on a rooted tree, producing one pair per leaf (a path anchored at both
ends is the one-leaf case), and ``repetition_content`` counts how often
a vertex set repeats matching edges.
"""

from __future__ import annotations

from ..colouring import EdgeColouring
from ..matching import Matching
# matched_colour_map is not called here; bench/tracing.py probes it here.
from .decompose import AnalysisInvariantError, matched_colour_map  # noqa: F401
from .forests import RootedTree

__all__ = [
    "repetition_content",
    "tree_repetition_pairs",
]


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

    Requires every vertex matched, no tree edge in the matching, every
    edge at the root coloured with the root's matching colour, and every
    leaf's parent edge coloured with that leaf's matching colour.
    Returns ``(pairs, ordered)`` where each pair ``(u, v)`` shares one
    matching colour, the first coordinates are pairwise distinct, there
    is exactly one pair per leaf, the pairs come sorted, and ``ordered``
    is the same tree with children arranged so that in post-order every
    pair lists ``u`` before ``v`` (``tree`` itself when its own order
    already does).

    A path whose end edges carry their end vertices' matching colours is
    the one-leaf case: ``RootedTree.build(g, path[0], {path[i]: path[i - 1]})``
    over ``i >= 1`` roots it at one end, and its single pair is two path
    vertices that share a matching colour.

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
    if col.graph != g or m.graph != g:
        raise ValueError("tree, colouring and matching refer to different graphs")
    verts = tree.vertices
    if len(verts) < 2:
        raise ValueError("tree must contain at least one edge")
    mcl: dict[int, int] = {}
    for v in verts:
        eid = m.matched_edge(v)
        if eid is None:
            raise ValueError(f"vertex {v} is not matched")
        if eid == tree.parent_edge.get(v):
            raise ValueError(f"tree edge at vertex {v} is a matching edge")
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
