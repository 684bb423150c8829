"""Immutable simple graphs with stable edge ids, plus edge-list text I/O."""

from __future__ import annotations

from ._record import Record

# Largest vertex count parse_graph accepts.  Graph allocates per vertex, so
# an unchecked header alone could exhaust memory before any edge is read.
MAX_VERTICES = 1_000_000


class GraphFormatError(ValueError):
    """An edge-list document violates the text format."""


class InvalidEdgeError(ValueError):
    """Edge ``eid`` of a would-be :class:`Graph` is not a pair of ints, is out
    of range, a self-loop or a duplicate."""

    def __init__(self, eid: int, message: str) -> None:
        super().__init__(f"edge {eid} {message}")
        self.eid = eid


class Graph(Record):
    """A finite simple undirected graph.

    Vertices are ``0..n-1``.  Edges are ``(u, v)`` tuples of ints, read as
    unordered pairs and carried in a fixed order; the position of an edge in
    ``edges`` is its id, and every other structure in this package (subsets,
    matchings, colourings) refers to edges by that id.  ``adjacency[v]``
    maps each neighbour of ``v`` to the id of their edge, in edge-id order;
    it is the one index behind :meth:`degree` and :meth:`edge_id`, and it is
    derived, so it is neither compared nor shown.  Instances are immutable
    once constructed.  The rows are plain dicts and must not be written: a
    read-only ``types.MappingProxyType`` around each cost about 4% of an
    ``approx`` request (``BENCH_adjacency_rows.json``).
    """

    _eq = _hash = _repr = ("n", "edges")

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[dict[int, int], ...]

    def __init__(self, n, edges) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        edges = tuple(edges)
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for eid, edge in enumerate(edges):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InvalidEdgeError(eid, f"is not a pair of ints: {edge!r}") from None
            if type(u) is not int or type(v) is not int or type(edge) is not tuple:
                raise InvalidEdgeError(eid, f"is not a pair of ints: {edge!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidEdgeError(eid, f"endpoint out of range 0..{n - 1}: ({u}, {v})")
            if u == v:
                raise InvalidEdgeError(eid, f"is a self-loop at vertex {u}")
            row = adj[u]
            if v in row:
                raise InvalidEdgeError(eid, f"duplicates edge {row[v]}: ({u}, {v})")
            row[v] = eid
            adj[v][u] = eid
        super().__init__(n, edges, tuple(adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_id(self, u: int, v: int) -> int | None:
        """Id of the edge joining ``u`` and ``v`` (either order), or ``None``,
        also when either is not a vertex."""
        # Guarded: a negative u would index a row from the end.
        return self.adjacency[u].get(v) if 0 <= u < self.n else None


class EdgeSubset(Record):
    """A set of edge ids over a parent graph.  Every id is an ``int`` in
    ``0..m-1``."""

    graph: Graph
    members: frozenset[int]

    def __init__(self, graph, members) -> None:
        members = frozenset(members)
        super().__init__(graph, members)
        if not set(map(type, members)) <= {int}:
            bad = min((eid for eid in members if type(eid) is not int), key=repr)
            raise ValueError(f"edge id {bad!r} is not an int")
        if members:
            low, high = min(members), max(members)
            if low < 0 or high >= graph.m:
                raise ValueError(f"edge id {low if low < 0 else high} out of range")

    def __contains__(self, eid: int) -> bool:
        return eid in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


class Component(Record):
    """One connected component of a spanning subgraph: its vertices (sorted),
    the ids of the kept edges inside it (sorted), and whether any edge is
    present."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def has_edges(self) -> bool:
        return bool(self.edge_ids)


def component_labels(g: Graph, drop: EdgeSubset | None = None) -> list[int]:
    """``label[v]`` is the least vertex of ``v``'s component of ``g`` minus
    the edges of ``drop``; ``drop=None`` keeps all edges.

    One search over the adjacency rows from each unlabelled vertex in id
    order, skipping the dropped edge ids: the search that labels a
    component starts at its least vertex.
    """
    if drop is not None and drop.graph != g:
        raise ValueError("edge subset belongs to a different graph")
    skip = frozenset() if drop is None else drop.members
    adj = g.adjacency
    label = [-1] * g.n
    for s in range(g.n):
        if label[s] < 0:
            label[s] = s
            reached = [s]
            for v in reached:  # grows while it is read
                row = adj[v]
                for w in row:  # the edge id only of an unlabelled neighbour
                    if label[w] < 0 and row[w] not in skip:
                        label[w] = s
                        reached.append(w)
    return label


def components(g: Graph, drop: EdgeSubset | None = None) -> list[Component]:
    """Connected components of ``g`` minus the edges of ``drop``.

    Every vertex of ``g`` appears in exactly one component (isolated vertices
    form singletons).  ``drop=None`` keeps all edges.  Components are listed
    by minimum vertex id; within one, vertices and edge ids are ascending, so
    the output is independent of edge order.  Both come out of scans in id
    order, grouped by :func:`component_labels`; nothing is sorted.
    """
    label = component_labels(g, drop)
    skip = frozenset() if drop is None else drop.members
    # A label is its component's least vertex, so the vertex scan meets the
    # components in that order.
    verts: dict[int, list[int]] = {}
    for v, r in enumerate(label):
        verts.setdefault(r, []).append(v)
    eids: dict[int, list[int]] = {r: [] for r in verts}
    for eid, (u, _) in enumerate(g.edges):
        if eid not in skip:
            eids[label[u]].append(eid)
    return [Component(tuple(vs), tuple(eids[r])) for r, vs in verts.items()]


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent.

    Each edge checks that the neighbours of its ends, the keys of their
    rows, are disjoint.
    """
    keys = [row.keys() for row in g.adjacency]
    return all(keys[u].isdisjoint(keys[v]) for u, v in g.edges)


def record_lines(text: str) -> list[int]:
    """The 1-based line number of each record of ``text``: of each line
    that is neither blank nor a ``#`` comment, in document order."""
    return [
        lineno
        for lineno, fields in enumerate(map(str.split, text.splitlines()), start=1)
        if fields and fields[0][0] != "#"
    ]


def read_records(
    text: str,
    width: int,
    error: type[ValueError],
    shape: str,
    first_shape: str | None = None,
) -> list[tuple[int, ...]]:
    """The line grammar shared by the graph, matching and colouring formats.

    Returns the fields of every line that is neither blank nor a ``#``
    comment, in document order; record ``k`` lies on line
    ``record_lines(text)[k]``.  Such a line must hold exactly ``width``
    whitespace-separated integers; otherwise ``error`` is raised as
    ``line N: <shape>, got '<line>'`` for the first line that does not,
    with ``first_shape`` in place of ``shape`` for the first record when
    it is a header.

    The whole document is read before a parser checks any value, so when
    a document holds both a malformed line and a value fault (a bad
    count, an edge out of range, a negative colour), the malformed line
    is the one named, wherever it lies.

    Every line boundary is whitespace to ``str.split``, so without a
    comment one split of the whole text gives the fields of all lines in
    order, and one ``int`` pass reads them.  A document in the layout the
    serializers write (``width`` tokens a line, one space between tokens,
    each line ending in LF) is recognised by rebuilding it from those
    fields with one ``%`` format, so only another layout is split line by
    line to check its widths.
    """
    if "#" in text:
        lines = text.splitlines()
        rows = [lines[lineno - 1].split() for lineno in record_lines(text)]
        tokens = [token for fields in rows for token in fields]
    else:
        tokens = text.split()
        count, rest = divmod(len(tokens), width)
        if not rest and ("%s " * (width - 1) + "%s\n") * count % tuple(tokens) == text:
            rows = ()  # every line holds width tokens
        else:
            rows = map(str.split, text.splitlines())
    if set(map(len, rows)) <= {0, width}:
        try:
            return list(zip(*[map(int, tokens)] * width))
        except ValueError:
            pass
    lines = text.splitlines()
    for index, lineno in enumerate(record_lines(text)):
        raw = lines[lineno - 1]
        try:
            record = (*map(int, raw.split()),)
        except ValueError:
            record = ()
        if len(record) != width:
            expected = first_shape if index == 0 and first_shape else shape
            raise error(f"line {lineno}: {expected}, got {raw!r}")
    raise ValueError("read_records found no malformed line to name")


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    Line 1 is ``n m``; each following non-comment line is one edge ``u v``.
    Lines starting with ``#`` and blank lines are ignored.  Malformed input,
    or a vertex count above :data:`MAX_VERTICES`, raises
    :class:`GraphFormatError` naming the offending line.
    """
    records = read_records(
        text, 2, GraphFormatError, "edge must be 'u v'", "header must be 'n m'"
    )
    if not records:
        raise GraphFormatError("line 1: missing 'n m' header")
    (n, m), edges = records[0], tuple(records[1:])
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {record_lines(text)[0]}: negative count in header")
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"line {record_lines(text)[0]}: vertex count {n} exceeds the limit {MAX_VERTICES}"
        )
    if len(edges) > m:
        raise GraphFormatError(f"line {record_lines(text)[m + 1]}: more than {m} edges")
    if len(edges) < m:
        raise GraphFormatError(
            f"line {len(text.splitlines()) + 1}: expected {m} edges, got {len(edges)}"
        )
    try:
        return Graph(n, edges)
    except InvalidEdgeError as exc:
        raise GraphFormatError(f"line {record_lines(text)[exc.eid + 1]}: {exc}") from None


def serialize_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` on its own output: ``n m`` header, then
    one ``u v`` line per edge in id order, LF line endings."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
