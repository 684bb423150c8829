"""Maximum matchings in general graphs."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graph import EdgeSubset, Graph


class MatchingFormatError(ValueError):
    """A matching document violates the text format or the parent graph."""


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges.

    ``mate[v]`` is the partner of ``v`` or ``None`` when ``v`` is exposed;
    it is derived from the edge set at construction, so the two views can
    never disagree.
    """

    edges: EdgeSubset
    mate: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.edges.graph
        mate: list[int | None] = [None] * g.n
        for eid in sorted(self.edges.members):
            u, v = g.edges[eid]
            if mate[u] is not None or mate[v] is not None:
                raise ValueError(f"edge {eid} shares a vertex with another matching edge")
            mate[u] = v
            mate[v] = u
        object.__setattr__(self, "mate", tuple(mate))

    @classmethod
    def from_edge_ids(cls, g: Graph, ids) -> Matching:
        return cls(EdgeSubset(g, frozenset(ids)))

    @property
    def graph(self) -> Graph:
        return self.edges.graph

    @property
    def size(self) -> int:
        return len(self.edges.members)

    def covers(self, v: int) -> bool:
        return self.mate[v] is not None

    def matched_edge(self, v: int) -> int | None:
        """Edge id of the matching edge at ``v``, if any."""
        mate = self.mate[v]
        if mate is None:
            return None
        return next(eid for y, eid in self.graph.adjacency[v] if y == mate)


def maximum_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching via alternating-tree search with blossom
    contraction.

    Fully deterministic: the matching is seeded greedily in edge-id order,
    exposed vertices are processed in id order, and neighbours are scanned in
    adjacency (edge-insertion) order.
    """
    n = g.n
    adj = g.adjacency
    match: list[int] = [-1] * n
    for u, v in g.edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u

    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] == -1:
                break
            x = p[match[x]]
        x = b
        while True:
            x = base[x]
            if seen[x]:
                return x
            x = p[match[x]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting_path(root: int) -> int:
        nonlocal p, base
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        q: deque[int] = deque([root])
        while q:
            v = q.popleft()
            for to, _eid in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for w in range(n):
                        if blossom[base[w]]:
                            base[w] = cur
                            if not used[w]:
                                used[w] = True
                                q.append(w)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_augmenting_path(v)
            while end != -1:
                pv = p[end]
                nxt = match[pv]
                match[end] = pv
                match[pv] = end
                end = nxt

    pair_to_eid = {}
    for eid, (u, v) in enumerate(g.edges):
        key = (u, v) if u < v else (v, u)
        if key not in pair_to_eid:
            pair_to_eid[key] = eid
    ids = set()
    for v in range(n):
        u = match[v]
        if u != -1 and v < u:
            ids.add(pair_to_eid[(v, u)])
    return Matching.from_edge_ids(g, ids)


def is_maximum(g: Graph, m: Matching) -> bool:
    """Independent maximality check: exhaustively searches for an augmenting
    path (a simple alternating path between two exposed vertices), trying
    every continuation with backtracking.  Exponential in the worst case;
    meant for desk-scale validation, with an early exit when no vertex is
    exposed."""
    if m.graph != g:
        raise ValueError("matching belongs to a different graph")
    exposed = [v for v in range(g.n) if m.mate[v] is None]
    if not exposed:
        return True
    in_m = m.edges.members

    def extend(v: int, used: frozenset[int]) -> bool:
        # v was reached on a matched edge (or is the start); leave on unmatched.
        for w, eid in g.adjacency[v]:
            if eid in in_m or w in used:
                continue
            if m.mate[w] is None:
                return True
            x = m.mate[w]
            if x in used:
                continue
            if extend(x, used | {w, x}):
                return True
        return False

    for start in exposed:
        if extend(start, frozenset([start])):
            return False
    return True


def is_perfect(g: Graph, m: Matching) -> bool:
    if m.graph != g:
        raise ValueError("matching belongs to a different graph")
    return all(x is not None for x in m.mate)


def parse_matching(text: str, g: Graph) -> Matching:
    """Parse one ``u v`` line per matching edge, validated against ``g``."""
    pair_to_eid: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        pair_to_eid[(u, v) if u < v else (v, u)] = eid
    ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MatchingFormatError(
                f"line {lineno}: matching edge must be 'u v', got {raw!r}"
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MatchingFormatError(
                f"line {lineno}: matching edge must be 'u v', got {raw!r}"
            ) from None
        key = (u, v) if u < v else (v, u)
        eid = pair_to_eid.get(key)
        if eid is None:
            raise MatchingFormatError(f"line {lineno}: ({u}, {v}) is not a graph edge")
        if eid in ids:
            raise MatchingFormatError(f"line {lineno}: edge ({u}, {v}) listed twice")
        ids.add(eid)
    try:
        return Matching.from_edge_ids(g, ids)
    except ValueError as exc:
        raise MatchingFormatError(str(exc)) from None


def serialize_matching(m: Matching) -> str:
    g = m.graph
    lines = [f"{g.edges[eid][0]} {g.edges[eid][1]}" for eid in sorted(m.edges.members)]
    return "\n".join(lines) + ("\n" if lines else "")
