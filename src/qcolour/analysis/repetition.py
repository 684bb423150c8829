"""Repetition structure of matching colours along rooted trees.

A colour class that belongs to the matching contributes one colour for
possibly many matching edges.  The functions here measure that reuse:
``tree_repetition_pairs`` pairs each leaf of a rooted tree with the first
vertex of its matching colour on one memoised route (a path anchored at
both ends is the one-leaf case), and ``repetition_content`` counts how
often a vertex set repeats matching edges.
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
    ``|vertices| - 1``.  ``m`` and ``col`` must share one graph.
    """
    if m.graph != col.graph:
        raise ValueError("colouring and matching refer to different graphs")
    if not vertices:
        raise ValueError("vertex set must be nonempty")
    ids = {m.mate_edge[v] for v in vertices}
    if None in ids:
        v = next(v for v in vertices if m.mate_edge[v] is None)
        raise ValueError(f"vertex {v} is not matched")
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
    tree left after the walk is monochromatic.  Every leaf pairs with the
    first vertex of its matching colour on its route, which starts at its
    parent and climbs, except on the spine of the current step (the path
    from a two-colour vertex down to its largest leaf), which it follows
    down.  Routes are memoised per vertex and colour, so the walk is linear.

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
        eid = m.mate_edge[v]
        if eid is None:
            raise ValueError(f"vertex {v} is not matched")
        if eid == tree.parent_edge.get(v):
            raise ValueError(f"tree edge at vertex {v} is a matching edge")
        mcl[v] = col.colour[eid]

    root = tree.root
    leaves = tree.leaves()
    for child in tree.children.get(root, ()):
        if col.colour[tree.parent_edge[child]] != mcl[root]:
            raise ValueError(
                "every edge at the root must carry the root's matching colour"
            )
    for leaf in leaves:
        if col.colour[tree.parent_edge[leaf]] != mcl[leaf]:
            raise ValueError(
                f"the edge at leaf {leaf} must carry the leaf's matching colour"
            )

    # The alive tree: its keys are the alive vertices, each mapped to its
    # alive children in order.  Subtrees are deleted as pairs are found.
    parent = tree.parent
    children = {v: dict.fromkeys(tree.children.get(v, ())) for v in verts}
    ecol = {v: col.colour[eid] for v, eid in tree.parent_edge.items()}
    pairs: list[tuple[int, int]] = []
    spine_last: dict[int, int] = {}
    memo: dict[tuple[int, int], int] = {}

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
        del children[parent[top]][top]
        for x in [top, *below(top)]:
            del children[x]

    def partner(u: int, a: int) -> tuple[int, int]:
        # The first vertex with matching colour a on u's route.  Memoising
        # is sound: a vertex a route passes through is deleted by the same
        # step, left a leaf by it (the spine top, whose spine_last entry goes
        # stale), or belongs to the final remainder, so its route never
        # changes.  A leaf only ever starts a route: hence parent[u].
        passed: list[int] = []
        x = parent[u]
        while mcl[x] != a and (x, a) not in memo:
            passed.append(x)
            x = spine_last[x] if x in spine_last else parent[x]
        found = memo.get((x, a), x)
        for y in passed:
            memo[(y, a)] = found
        return (u, found)

    for v in verts:
        if len(colours_at(v)) > 2:
            raise ValueError(f"vertex {v} sees three tree colours")

    for v in tree.postorder:
        while v in children:
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

            if a_children:
                # Branches below v coloured a are monochromatic (the walk has
                # passed them), so each of their leaves pairs to an ancestor
                # with matching colour a; v itself qualifies.
                for c in a_children:
                    pairs.extend(partner(u, a) for u in [c, *below(c)] if not children[u])
                if len(a_children) < len(children[v]):
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
            # edges are all coloured b.  The spine runs from v to the largest
            # b-leaf w.  The step deletes it below v and leaves v a leaf, so
            # no later spine gives a vertex here a second successor.
            sub = below(v)
            w = max(x for x in sub if not children[x])
            x = w
            while x != v:
                spine_last[parent[x]] = x
                x = parent[x]
            pairs.extend(partner(u, b) for u in sub if not children[u] and u != w)
            for x in sub:
                del children[x]
            children[v].clear()

    if children[root]:
        # Monochromatic remainder: every leaf pairs with the nearest
        # ancestor carrying the (single) tree colour.
        pairs.extend(partner(u, mcl[root]) for u in below(root) if not children[u])

    if len(pairs) != len(leaves):
        raise AnalysisInvariantError("one pair per original leaf")
    ordered = tree.reordered(spine_last)
    if not all(ordered.preceq(u, x) for u, x in pairs):
        raise AnalysisInvariantError("pairs must respect the post-order")
    return tuple(sorted(pairs)), ordered
