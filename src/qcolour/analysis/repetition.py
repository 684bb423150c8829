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

    The tree is read once, in one pass over ``tree.postorder`` that
    collects the matching and edge colours, the alive children and the
    leaf count, and checks every precondition.  The pairs are then found
    in one walk over the vertices that see two tree colours, in that
    order; no other vertex can start a step, since a step only deletes
    edges.  Children come before their parents, so when the walk reaches
    a vertex that sees two colours, everything still below it sees one;
    the step there pairs leaves below it and deletes the branches they
    hang from.  The tree left after the walk is monochromatic.  Every
    leaf pairs with the first vertex of its matching colour on its route,
    which starts at its parent and climbs, except on the spine of the
    current step (the path from a two-colour vertex down to its largest
    leaf), which it follows down.  Routes are memoised per vertex and
    colour, so the walk is linear.

    Raises ``ValueError`` when a precondition fails or some vertex sees
    three colours, and :class:`AnalysisInvariantError` when the pairs
    break a guarantee above.  Of several failed preconditions the first
    in this order is named: a vertex that is unmatched or matched along a
    tree edge, an edge at the root, a leaf's edge, a vertex seeing three
    tree colours; within each, the lowest vertex.
    """
    g = tree.graph
    if (col.graph is not g and col.graph != g) or (m.graph is not g and m.graph != g):
        raise ValueError("tree, colouring and matching refer to different graphs")
    post = tree.postorder
    if len(post) < 2:
        raise ValueError("tree must contain at least one edge")
    root, shape, parent_edge = tree.root, tree.children, tree.parent_edge
    colour, mate_edge = col.colour, m.mate_edge

    mcl: dict[int, int] = {}  # matching colour
    ecol: dict[int, int] = {}  # colour of the edge to the parent
    # The alive tree: its keys are the alive vertices, each mapped to its
    # alive children in order.  Subtrees are deleted as pairs are found.
    children: dict[int, dict[int, None]] = {}
    two_coloured: list[int] = []
    leaves = 0
    faults: list[tuple[int, int, str]] = []  # (precedence, vertex, message)
    for v in post[:-1]:
        up = parent_edge[v]
        e = ecol[v] = colour[up]
        kids = shape.get(v)
        if kids:
            children[v] = dict.fromkeys(kids)
            seen = {ecol[c] for c in kids}
            seen.add(e)
            if len(seen) == 2:
                two_coloured.append(v)
            elif len(seen) > 2:
                faults.append((3, v, f"vertex {v} sees three tree colours"))
        else:
            children[v] = {}
            leaves += 1
        eid = mate_edge[v]
        if eid is None:
            faults.append((0, v, f"vertex {v} is not matched"))
        elif eid == up:
            faults.append((0, v, f"tree edge at vertex {v} is a matching edge"))
        else:
            mcl[v] = colour[eid]
            if not kids and e != mcl[v]:
                message = f"the edge at leaf {v} must carry the leaf's matching colour"
                faults.append((2, v, message))
    # The root comes last.
    kids = shape[root]
    children[root] = dict.fromkeys(kids)
    seen = {ecol[c] for c in kids}
    eid = mate_edge[root]
    if eid is None:
        faults.append((0, root, f"vertex {root} is not matched"))
    else:
        mcl[root] = colour[eid]
        if seen != {mcl[root]}:
            message = "every edge at the root must carry the root's matching colour"
            faults.append((1, root, message))
    if len(seen) > 2:
        faults.append((3, root, f"vertex {root} sees three tree colours"))
    if faults:
        raise ValueError(min(faults)[2])

    parent = tree.parent
    pairs: list[tuple[int, int]] = []
    spine_last: dict[int, int] = {}
    memo: dict[tuple[int, int], int] = {}
    route = (parent, mcl, spine_last, memo)  # what _partner reads

    # The root sees only its own matching colour, so it is not two-coloured.
    for v in two_coloured:
        while v in children:
            seen = {ecol[c] for c in children[v]}
            seen.add(ecol[v])
            if len(seen) < 2:
                break
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
                    below = [c, *_below(children, c)]
                    pairs.extend(_partner(u, a, *route) for u in below if not children[u])
                if len(a_children) < len(children[v]):
                    for c in a_children:
                        _delete_subtree(children, parent, c)
                else:
                    # v's parent edge carries b.  Drop v with the chain of
                    # one-child ancestors above it.
                    drop = v
                    while parent[drop] != root and len(children[parent[drop]]) == 1:
                        drop = parent[drop]
                    _delete_subtree(children, parent, drop)
                continue

            # No child edge below v carries a: the second colour comes from
            # below via b, and the parent edge carries a.  The walk has
            # passed the branches below, so they and their leaves' matching
            # edges are all coloured b.  The spine runs from v to the largest
            # b-leaf w.  The step deletes it below v and leaves v a leaf, so
            # no later spine gives a vertex here a second successor.
            sub = _below(children, v)
            w = max(x for x in sub if not children[x])
            x = w
            while x != v:
                spine_last[parent[x]] = x
                x = parent[x]
            pairs.extend(_partner(u, b, *route) for u in sub if not children[u] and u != w)
            for x in sub:
                del children[x]
            children[v].clear()

    if children[root]:
        # Monochromatic remainder: every leaf pairs with the nearest
        # ancestor carrying the (single) tree colour.
        a = mcl[root]
        for u in _below(children, root):
            if not children[u]:
                pairs.append(_partner(u, a, *route))

    if len(pairs) != leaves:
        raise AnalysisInvariantError("one pair per original leaf")
    ordered = tree.reordered(spine_last) if spine_last else tree
    index = ordered.index
    for u, x in pairs:
        if index[u] > index[x]:
            raise AnalysisInvariantError("pairs must respect the post-order")
    pairs.sort()
    return tuple(pairs), ordered


def _below(children: dict[int, dict[int, None]], top: int) -> list[int]:
    """The alive vertices strictly below ``top``."""
    out: list[int] = []
    stack = list(children[top])
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(children[x])
    return out


def _delete_subtree(children: dict[int, dict[int, None]], parent: dict, top: int) -> None:
    del children[parent[top]][top]
    for x in [top, *_below(children, top)]:
        del children[x]


def _partner(u: int, a: int, parent: dict, mcl: dict, spine_last: dict, memo: dict) -> tuple:
    """``u`` with the first vertex of matching colour ``a`` on its route.

    Memoising is sound: a vertex a route passes through is deleted by the
    same step, left a leaf by it (the spine top, whose ``spine_last`` entry
    goes stale), or belongs to the final remainder, so its route never
    changes.  A leaf only ever starts a route: hence ``parent[u]``.
    """
    passed: list[int] = []
    x = parent[u]
    while mcl[x] != a and (x, a) not in memo:
        passed.append(x)
        x = spine_last[x] if x in spine_last else parent[x]
    found = memo.get((x, a), x)
    for y in passed:
        memo[(y, a)] = found
    return (u, found)
