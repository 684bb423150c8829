"""Splitting a valid 2-colouring over a perfect matching into the structures
the approximation-ratio argument is built from.

A colour is a *matching colour* when some matching edge wears it, otherwise a
*non-matching colour*.  Every colour class must be connected.  Validity and
a perfect matching make non-matching classes vertex-disjoint (a shared
vertex would also see its matching colour), and connectivity confines each
to one component of the graph minus the matching; the whole machinery of
paths between them hangs off this decomposition.
"""

from __future__ import annotations

from .._record import Record
from ..colouring import EdgeColouring, validate
from ..graph import Component, EdgeSubset, Graph, component_labels
# components is not called here; bench/tracing.py probes it here.
from ..graph import components  # noqa: F401
from ..matching import Matching, is_perfect


class StructuralError(ValueError):
    """The input fails a structural precondition of the analysis."""


class ImperfectMatchingError(StructuralError):
    """The analysis requires a perfect matching."""


class InvalidColouringError(StructuralError):
    """The colouring is not valid for q = 2."""


class DisconnectedColourClassError(StructuralError):
    """Some colour class does not induce a connected subgraph."""


class UnanchoredComponentError(StructuralError):
    """An edge-containing component of G minus M carries no non-matching
    colour, so there is nothing to anchor its cascade of forests to."""


class AnalysisInvariantError(StructuralError):
    """A lemma of the analysis fails on the structures the pipeline built
    itself; the message names the lemma."""


def matched_colour_map(col: EdgeColouring, m: Matching) -> tuple[int | None, ...]:
    """Per-vertex colour of the incident matching edge (``None`` if exposed),
    read through ``m.mate_edge``; ``col`` and ``m`` must share one graph."""
    if m.graph != col.graph:
        raise ValueError("colouring and matching refer to different graphs")
    return tuple([None if eid is None else col.colour[eid] for eid in m.mate_edge])


class ColourDecomposition(Record):
    """A valid 2-colouring split against a perfect matching.

    ``gm_components`` are the edge-containing components C_1..C_h of the graph
    minus the matching, in min-vertex order; ``component_colours[i]`` lists
    the non-matching colours whose class lies inside C_i (so ``k[i]`` is its
    length); ``vertex_class[v]`` is the non-matching colour whose class holds
    v, for every vertex of such a class.  ``vertex_class`` is compared but,
    being a dict, not hashed.
    """

    __slots__ = (
        "graph", "matching", "colouring", "matching_colours", "non_matching_colours",
        "gm_components", "component_colours", "vertex_class",
    )
    _hash = __slots__[:-1]  # all but vertex_class

    graph: Graph
    matching: Matching
    colouring: EdgeColouring
    matching_colours: frozenset[int]
    non_matching_colours: frozenset[int]
    gm_components: tuple[Component, ...]
    component_colours: tuple[tuple[int, ...], ...]
    vertex_class: dict[int, int]

    @property
    def h(self) -> int:
        return len(self.gm_components)

    @property
    def k(self) -> tuple[int, ...]:
        return tuple(len(cc) for cc in self.component_colours)

    @property
    def num_colours(self) -> int:
        return self.colouring.num_colours


def _check_valid(g: Graph, col: EdgeColouring) -> None:
    """Raise :class:`InvalidColouringError` naming the first vertex that
    sees more than two colours, if there is one."""
    report = validate(g, col, 2)
    if not report.valid:
        v, seen = report.first_violation  # type: ignore[misc]
        raise InvalidColouringError(
            f"not a valid 2-colouring: vertex {v} sees colours {sorted(seen)}"
        )


def decompose(g: Graph, m: Matching, col: EdgeColouring) -> ColourDecomposition:
    """Validate and split ``col`` against ``m``.

    Raises a :class:`StructuralError` when the graph has no edges, or a
    subclass when the matching is not perfect, the colouring is invalid for
    q = 2, or some colour class is disconnected (naming the lowest); an
    invalid colouring is named first.  One search per class, along its own
    edges from an end of its first edge, proves it connected and gives a
    non-matching class's vertices.  The searches also count the classes
    that reach each vertex.  When every class is connected, that count is
    the number of colours the vertex sees, so a colouring whose classes are
    all connected and whose vertices each meet at most two is valid with no
    pass of its own.  Only a disconnected class or a vertex met by three
    classes calls :func:`~qcolour.colouring.validate`, which names the
    first vertex over budget: a search misses the vertices of its class
    that lie in another piece, so there a third colour may go uncounted.
    :func:`~qcolour.graph.component_labels` labels G − M; one pass
    over the non-matching edges and one over the vertices whose label owns
    an edge build the edge-containing components, and a scan of each
    component's edges files the non-matching colours.  The decomposition
    holds ``m`` and ``col`` over ``g`` itself, even when they were loaded
    over an equal but separate graph.
    """
    if m.graph != g or col.graph != g:
        raise ValueError("matching/colouring belong to a different graph")
    # An equal graph loaded separately costs one O(m) comparison, above:
    # m and col are re-homed on g, so later stages compare g with itself.
    if m.graph is not g:
        m = Matching(EdgeSubset(g, m.edges.members))
    if col.graph is not g:
        col = EdgeColouring(g, col.colour)
    if g.m == 0:
        raise StructuralError("graph has no edges to colour")
    if not is_perfect(g, m):
        exposed = next(v for v in range(g.n) if m.mate[v] is None)
        raise ImperfectMatchingError(
            f"matching is not perfect: vertex {exposed} is exposed"
        )

    colour = col.colour
    c_m = frozenset(colour[eid] for eid in m.edges.members)
    c_n = frozenset(range(col.num_colours)) - c_m

    # Canonical colours first appear in order: first[c] is class c's first edge.
    size = [0] * col.num_colours
    first: list[int] = []
    for eid, c in enumerate(colour):
        if not size[c]:
            first.append(eid)
        size[c] += 1
    # Each reached class edge is met once from each end, so the class is
    # connected exactly when its search meets 2 * size[c] edge ends.  When
    # every class is connected, meets[v] counts the colours v sees.
    adjacency = g.adjacency
    meets = [0] * g.n
    vertex_class: dict[int, int] = {}
    for c, eid in enumerate(first):
        start = g.edges[eid][0]
        seen = {start}
        stack = [start]
        meets[start] += 1
        ends = 0
        while stack:
            for y, e in adjacency[stack.pop()]:
                if colour[e] == c:
                    ends += 1
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
                        meets[y] += 1
        if ends != 2 * size[c]:
            _check_valid(g, col)
            raise DisconnectedColourClassError(f"colour class {c} is disconnected")
        if c not in c_m:
            vertex_class.update(dict.fromkeys(seen, c))
    if max(meets) > 2:
        _check_valid(g, col)

    # A component of G minus M is keyed by its label, its least vertex, so
    # the vertex pass meets the components in min-vertex order.
    label = component_labels(g, m.edges)
    mate_edge = m.mate_edge
    comp_edges: dict[int, list[int]] = {}
    for eid, (u, _) in enumerate(g.edges):
        if mate_edge[u] != eid:
            comp_edges.setdefault(label[u], []).append(eid)
    comp_verts: dict[int, list[int]] = {}
    for v, r in enumerate(label):
        if r in comp_edges:
            comp_verts.setdefault(r, []).append(v)
    gm_comps = tuple([Component(tuple(vs), tuple(comp_edges[r])) for r, vs in comp_verts.items()])
    # A connected non-matching class lies inside one component of G minus M,
    # so a scan of each component's edges files it there; canonical colours
    # come out of that scan in increasing order.
    comp_colours = tuple(
        tuple(c for c in dict.fromkeys(colour[eid] for eid in comp.edge_ids) if c not in c_m)
        for comp in gm_comps
    )

    return ColourDecomposition(
        graph=g,
        matching=m,
        colouring=col,
        matching_colours=c_m,
        non_matching_colours=c_n,
        gm_components=gm_comps,
        component_colours=comp_colours,
        vertex_class=vertex_class,
    )
