"""Maximum matchings in general graphs."""

from __future__ import annotations

from ._record import Record
from .graph import EdgeSubset, Graph, read_records, record_lines


class MatchingFormatError(ValueError):
    """A matching document violates the text format or the parent graph."""


class Matching(Record):
    """A set of pairwise vertex-disjoint edges.

    Two per-vertex views are derived from the edge set at construction, so
    they can never disagree with it: ``mate[v]`` is the partner of ``v``
    and ``mate_edge[v]`` the id of the matching edge at ``v``, both
    ``None`` when ``v`` is exposed.  Neither is compared or shown.
    """

    _eq = _hash = _repr = ("edges",)

    edges: EdgeSubset
    mate: tuple[int | None, ...]
    mate_edge: tuple[int | None, ...]

    def __init__(self, edges) -> None:
        g = edges.graph
        mate: list[int | None] = [None] * g.n
        mate_edge: list[int | None] = [None] * g.n
        for eid in sorted(edges.members):
            u, v = g.edges[eid]
            if mate[u] is not None or mate[v] is not None:
                raise ValueError(f"edge {eid} shares a vertex with another matching edge")
            mate[u] = v
            mate[v] = u
            mate_edge[u] = mate_edge[v] = eid
        super().__init__(edges, tuple(mate), tuple(mate_edge))

    @classmethod
    def from_edge_ids(cls, g: Graph, ids) -> Matching:
        return cls(EdgeSubset(g, frozenset(ids)))

    @property
    def graph(self) -> Graph:
        return self.edges.graph

    @property
    def size(self) -> int:
        return len(self.edges.members)


def _searcher(g: Graph, match: list[int]):
    """Edmonds' alternating-tree search with blossom contraction over the
    mate array ``match`` (``-1`` marks an exposed vertex), read as it stands
    at each call and never written.  ``search(root)`` returns the exposed
    vertex ending an augmenting path from ``root``, read back through ``p``
    and ``match``, or ``-1`` when there is none.

    The state is allocated once.  Each search resets only the vertices the
    previous one touched, and a contraction relabels only the vertices
    under the blossom's own bases, so a search costs what it reaches, not
    O(n).  The queue is a list read while it grows, first in first out.
    Neighbours are scanned in adjacency order, the keys of ``v``'s row, and
    the vertices a contraction newly reaches are enqueued in ascending id
    order.
    """
    n = g.n
    adj = g.adjacency
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    touched: list[int] = []  # every vertex whose p, base or used this search set
    under: dict[int, list[int]] = {}  # contracted base -> the vertices under it

    def lca(a: int, b: int) -> int:
        seen: set[int] = set()
        x = a
        while True:
            x = base[x]
            seen.add(x)
            if match[x] == -1:
                break
            x = p[match[x]]
        x = b
        while True:
            x = base[x]
            if x in seen:
                return x
            x = p[match[x]]

    def mark_path(v: int, b: int, child: int, bases: set[int]) -> None:
        while base[v] != b:
            bases.add(base[v])
            bases.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def search(root: int) -> int:
        for w in touched:
            p[w] = -1
            base[w] = w
            used[w] = False
        touched.clear()
        under.clear()
        used[root] = True
        touched.append(root)
        q = [root]
        for v in q:  # grows while it is read
            mate_v = match[v]  # match is never written during a search
            base_v = base[v]  # moved only by a contraction, which re-reads it
            for to in adj[v]:
                if base_v == base[to] or mate_v == to:
                    continue
                mate_to = match[to]
                if to == root or (mate_to != -1 and p[mate_to] != -1):
                    cur = lca(v, to)
                    bases: set[int] = set()
                    mark_path(v, cur, to, bases)
                    mark_path(to, cur, v, bases)
                    blossom = under.setdefault(cur, [cur])
                    reached = []
                    for b in bases:
                        for w in under.pop(b, [b]):
                            base[w] = cur
                            blossom.append(w)
                            if not used[w]:
                                used[w] = True
                                reached.append(w)
                    reached.sort()
                    q.extend(reached)
                    base_v = base[v]
                elif p[to] == -1:
                    p[to] = v
                    touched.append(to)
                    if mate_to == -1:
                        return to
                    used[mate_to] = True
                    touched.append(mate_to)
                    q.append(mate_to)
        return -1

    return search, p


def maximum_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching via alternating-tree search with blossom
    contraction (Edmonds 1965).

    Fully deterministic: the matching is seeded greedily in edge-id order,
    and ``_searcher``'s search augments from the exposed vertices in id
    order.
    """
    n = g.n
    match: list[int] = [-1] * n
    for u, v in g.edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u

    search, p = _searcher(g, match)
    for v in range(n):
        if match[v] == -1:
            end = search(v)
            while end != -1:
                pv = p[end]
                nxt = match[pv]
                match[end] = pv
                match[pv] = end
                end = nxt

    adj = g.adjacency
    return Matching.from_edge_ids(g, [adj[v][w] for v, w in enumerate(match) if v < w])


def is_maximum(g: Graph, m: Matching) -> bool:
    """Berge's test (1957): ``m`` is maximum exactly when no exposed vertex
    starts an augmenting path.  Runs the same blossom search as
    ``maximum_matching`` once from each exposed vertex, without augmenting,
    so it costs what that search costs on ``m``."""
    if m.graph != g:
        raise ValueError("matching belongs to a different graph")
    if None not in m.mate:
        return True
    match = [-1 if w is None else w for w in m.mate]
    search, _ = _searcher(g, match)
    return all(search(v) == -1 for v in range(g.n) if match[v] == -1)


def is_perfect(g: Graph, m: Matching) -> bool:
    if m.graph != g:
        raise ValueError("matching belongs to a different graph")
    return all(x is not None for x in m.mate)


def parse_matching(text: str, g: Graph) -> Matching:
    """Parse one ``u v`` line per matching edge, validated against ``g``."""
    records = read_records(text, 2, MatchingFormatError, "matching edge must be 'u v'")
    ids: list[int] = []  # one per record read, so len(ids) indexes the record at fault
    covered = bytearray(g.n)
    edge_id = g.edge_id
    for u, v in records:
        eid = edge_id(u, v)
        if eid is None:
            problem = f"({u}, {v}) is not a graph edge"
        elif covered[u] or covered[v]:
            problem = f"edge ({u}, {v}) " + (
                "listed twice" if eid in ids else "shares a vertex with another matching edge"
            )
        else:
            ids.append(eid)
            covered[u] = covered[v] = 1
            continue
        raise MatchingFormatError(f"line {record_lines(text)[len(ids)]}: {problem}")
    return Matching.from_edge_ids(g, ids)


def serialize_matching(m: Matching) -> str:
    g = m.graph
    lines = [f"{g.edges[eid][0]} {g.edges[eid][1]}" for eid in sorted(m.edges.members)]
    return "\n".join(lines) + ("\n" if lines else "")
