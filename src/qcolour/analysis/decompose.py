"""Splitting a valid 2-colouring over a perfect matching into the structures
the approximation-ratio argument is built from.

A colour is a *matching colour* when some matching edge wears it, otherwise a
*non-matching colour*.  Every colour class must be connected; non-matching
classes are then automatically vertex-disjoint, each confined to a single
component of the graph minus the matching, and the whole machinery of paths
between them hangs off this decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..colouring import EdgeColouring, validate
from ..graph import Component, Graph, components
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
    """Per-vertex colour of the incident matching edge (``None`` if exposed)."""
    g = col.graph
    out: list[int | None] = [None] * g.n
    for eid in m.edges.members:
        u, v = g.edges[eid]
        out[u] = out[v] = col.colour[eid]
    return tuple(out)


@dataclass(frozen=True)
class ColourDecomposition:
    """A valid 2-colouring split against a perfect matching.

    ``gm_components`` are the edge-containing components C_1..C_h of the graph
    minus the matching, in min-vertex order; ``component_colours[i]`` lists
    the non-matching colours whose class lies inside C_i (so ``k[i]`` is its
    length); ``vertex_class[v]`` is the non-matching colour whose class holds
    v, for every vertex of such a class.
    """

    graph: Graph
    matching: Matching
    colouring: EdgeColouring
    matching_colours: frozenset[int]
    non_matching_colours: frozenset[int]
    gm_components: tuple[Component, ...]
    component_colours: tuple[tuple[int, ...], ...]
    vertex_class: dict[int, int] = field(hash=False)

    @property
    def h(self) -> int:
        return len(self.gm_components)

    @property
    def k(self) -> tuple[int, ...]:
        return tuple(len(cc) for cc in self.component_colours)

    @property
    def num_colours(self) -> int:
        return self.colouring.num_colours


def _class_is_connected(g: Graph, eids: list[int]) -> bool:
    verts: set[int] = set()
    for eid in eids:
        verts.update(g.edges[eid])
    if not verts:
        return True
    allowed = set(eids)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y, eid in g.adjacency[x]:
            if eid in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def decompose(g: Graph, m: Matching, col: EdgeColouring) -> ColourDecomposition:
    """Validate and split ``col`` against ``m``.

    Raises a :class:`StructuralError` when the graph has no edges, or a
    subclass when the matching is not perfect, the colouring is invalid for
    q = 2, or some colour class is disconnected.  The components of G minus
    M come from one ``components(g, m.edges)`` call, and each non-matching
    colour is filed under the component of its first edge.
    """
    if m.graph != g or col.graph != g:
        raise ValueError("matching/colouring belong to a different graph")
    if g.m == 0:
        raise StructuralError("graph has no edges to colour")
    if not is_perfect(g, m):
        exposed = next(v for v in range(g.n) if m.mate[v] is None)
        raise ImperfectMatchingError(
            f"matching is not perfect: vertex {exposed} is exposed"
        )
    report = validate(g, col, 2)
    if not report.valid:
        v, seen = report.first_violation  # type: ignore[misc]
        raise InvalidColouringError(
            f"not a valid 2-colouring: vertex {v} sees colours {sorted(seen)}"
        )

    by_colour: list[list[int]] = [[] for _ in range(col.num_colours)]
    for eid, c in enumerate(col.colour):
        by_colour[c].append(eid)
    for c, eids in enumerate(by_colour):
        if not _class_is_connected(g, eids):
            raise DisconnectedColourClassError(f"colour class {c} is disconnected")

    c_m = frozenset(col.colour[eid] for eid in m.edges.members)
    c_n = frozenset(range(col.num_colours)) - c_m

    gm_comps = tuple(comp for comp in components(g, m.edges) if comp.has_edges)
    edge_to_comp: dict[int, int] = {}
    for i, comp in enumerate(gm_comps):
        for eid in comp.edge_ids:
            edge_to_comp[eid] = i
    # A connected class of non-matching edges lies inside one component of
    # G minus M, so its first edge names that component.  Validity makes
    # distinct non-matching classes vertex-disjoint: a shared vertex would
    # see both of them plus its matching colour.
    comp_colours: list[list[int]] = [[] for _ in gm_comps]
    vertex_class: dict[int, int] = {}
    for c, eids in enumerate(by_colour):
        if c in c_m:
            continue
        comp_colours[edge_to_comp[eids[0]]].append(c)
        for eid in eids:
            for v in g.edges[eid]:
                vertex_class[v] = c

    return ColourDecomposition(
        graph=g,
        matching=m,
        colouring=col,
        matching_colours=c_m,
        non_matching_colours=c_n,
        gm_components=gm_comps,
        component_colours=tuple(tuple(cc) for cc in comp_colours),
        vertex_class=vertex_class,
    )
