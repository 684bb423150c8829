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
from ..graph import Graph
from ..matching import Matching
# matched_colour_map is not called here; bench/tracing.py probes it here.
from .decompose import matched_colour_map  # noqa: F401

__all__ = [
    "path_repetition",
    "repetition_content",
    "tree_repetition_pairs",
]


def _edge_between(g: Graph, u: int, v: int) -> int:
    for y, eid in g.adjacency[u]:
        if y == v:
            return eid
    raise ValueError(f"no edge between {u} and {v}")


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
        eid = _edge_between(g, a, b)
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
    rp = len(ids) - 1
    assert 2 * rp >= len(vertices) - 2
    assert rp <= len(vertices) - 1
    return rp


def tree_repetition_pairs(
    tree: "RootedTree",
    col: EdgeColouring,
    m: Matching,
) -> tuple[tuple[tuple[int, int], ...], "RootedTree"]:
    """Extract one matching-colour pair per leaf of a rooted tree.

    Requires every vertex matched, every edge at the root coloured with
    the root's matching colour, and every leaf's parent edge coloured
    with that leaf's matching colour.  Returns ``(pairs, ordered)``
    where each pair ``(u, v)`` shares one matching colour, the first
    coordinates are pairwise distinct, there is exactly one pair per
    leaf, and ``ordered`` is the same tree with children arranged so
    that in post-order every pair lists ``u`` before ``v``.
    """
    from .forests import RootedTree

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

    # Mutable scratch copy; vertices are deleted bottom-up as pairs are found.
    parent = dict(tree.parent)
    children: dict[int, list[int]] = {v: list(tree.children.get(v, ())) for v in verts}
    ecol = {v: col.colour[tree.parent_edge[v]] for v in verts if v != root}
    alive = set(verts)
    pairs: list[tuple[int, int]] = []
    spine_last: dict[int, int] = {}

    def current_leaves(below: int | None = None) -> list[int]:
        if below is None:
            pool = alive
        else:
            pool = set()
            stack = [below]
            while stack:
                x = stack.pop()
                pool.add(x)
                stack.extend(children[x])
            pool.discard(below)
        return sorted(v for v in pool if v != root and not children[v])

    def delete_subtree(top: int) -> None:
        stack = [top]
        while stack:
            x = stack.pop()
            alive.discard(x)
            stack.extend(children[x])
            children[x] = []
        p = parent.get(top)
        if p is not None and top in children.get(p, []):
            children[p].remove(top)

    def mono_pair(u: int, a: int) -> tuple[int, int]:
        # Nearest strict ancestor of u whose matching edge carries colour a.
        x = parent[u]
        while mcl[x] != a:
            x = parent[x]
        return (u, x)

    while len(alive) >= 2:
        witnessed: dict[int, set[int]] = {v: set() for v in alive}
        for v in alive:
            if v != root and v in parent and parent[v] in alive:
                witnessed[v].add(ecol[v])
                witnessed[parent[v]].add(ecol[v])
        for v in alive:
            assert len(witnessed[v]) <= 2, "a vertex sees three tree colours"
        bichromatic = sorted(v for v in alive if len(witnessed[v]) == 2)
        if not bichromatic:
            # Monochromatic tree: every remaining leaf pairs upward to the
            # nearest ancestor carrying the (single) tree colour.
            a = ecol[min(alive - {root})]
            assert mcl[root] == a
            for u in current_leaves():
                pairs.append(mono_pair(u, a))
            break

        height = {v: 0 for v in alive}
        order = []
        stack = [(root, 0)]
        while stack:
            x, ci = stack.pop()
            if ci < len(children[x]):
                stack.append((x, ci + 1))
                stack.append((children[x][ci], 0))
            else:
                order.append(x)
        for x in order:
            if children[x]:
                height[x] = 1 + max(height[c] for c in children[x])
        v = min(bichromatic, key=lambda x: (height[x], x))
        assert v != root, "the root cannot be the lowest two-coloured vertex"
        a = mcl[v]
        assert a in witnessed[v]
        (b,) = witnessed[v] - {a}
        a_children = [c for c in children[v] if ecol[c] == a]
        b_children = [c for c in children[v] if ecol[c] == b]

        if a_children:
            # Branches below v coloured a are monochromatic (v is lowest
            # bichromatic), so each of their leaves pairs to an ancestor
            # with matching colour a; v itself qualifies.
            for c in a_children:
                sub = {c}
                stack2 = [c]
                while stack2:
                    x = stack2.pop()
                    sub.update(children[x])
                    stack2.extend(children[x])
                for u in sorted(x for x in sub if not children[x]):
                    pairs.append(mono_pair(u, a))
            if b_children:
                for c in list(a_children):
                    delete_subtree(c)
            else:
                assert ecol[v] == b
                w = parent[v]
                while w != root and (1 if w in parent else 0) + len(children[w]) == 2:
                    w = parent[w]
                drop = v
                while parent[drop] != w:
                    drop = parent[drop]
                delete_subtree(drop)
            continue

        # No child edge below v carries a: the second colour comes from
        # below via b, and the parent edge carries a.
        assert ecol[v] == a
        assert b_children
        below = set()
        stack2 = list(children[v])
        while stack2:
            x = stack2.pop()
            below.add(x)
            stack2.extend(children[x])
        assert all(ecol[x] == b for x in below), "branches below are not monochromatic"
        leaves_b = current_leaves(below=v)
        assert all(mcl[u] == b for u in leaves_b)
        w = max(leaves_b)
        spine = [w]
        while spine[-1] != v:
            spine.append(parent[spine[-1]])
        spine.reverse()  # v ... w
        for s, t in zip(spine, spine[1:]):
            assert s not in spine_last or spine_last[s] == t
            spine_last[s] = t
        on_spine = set(spine)
        for u in leaves_b:
            if u == w:
                continue
            # Walk from u towards v until the spine, then down to w; the
            # first vertex after u with matching colour b is the partner.
            up = [u]
            while up[-1] not in on_spine:
                up.append(parent[up[-1]])
            join = up[-1]
            walk = up[1:] + spine[spine.index(join) + 1 :]
            partner = next(x for x in walk if mcl[x] == b)
            pairs.append((u, partner))
        for c in list(children[v]):
            delete_subtree(c)

    assert len(pairs) == len(tree.leaves()), "one pair per original leaf"

    child_order: dict[int, tuple[int, ...]] = {}
    for v, last in spine_last.items():
        others = [c for c in tree.children.get(v, ()) if c != last]
        child_order[v] = tuple(others + [last])
    ordered = RootedTree.build(
        g,
        root,
        dict(tree.parent),
        dict(tree.parent_edge),
        child_order={v: child_order.get(v, tree.children.get(v, ())) for v in verts},
    )
    for u, x in pairs:
        assert ordered.preceq(u, x), "pairs must respect the post-order"
    return tuple(pairs), ordered
