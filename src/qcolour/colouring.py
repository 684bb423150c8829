"""Edge colourings under the per-vertex colour budget, and the matching-based
approximation algorithm.

A colouring is *valid for q* when every vertex sees at most q distinct
colours on its incident edges.  The approximation colours a maximum matching
with one colour per edge and every edge-containing component of the leftover
graph with one shared colour, giving |M| + h colours total.
"""

from __future__ import annotations

from itertools import chain

from ._record import Record
from .graph import Graph, component_labels, read_records, record_lines
# components is not called here; bench/tracing.py probes it here.
from .graph import components  # noqa: F401
from .matching import Matching, maximum_matching


class ColouringFormatError(ValueError):
    """A colouring document violates the text format or the parent graph."""


class EdgeColouring(Record):
    """An assignment of a colour to every edge of a graph.

    Stored in canonical form: colours are the ``int`` values ``0..c-1``,
    numbered by first appearance in edge-id order.  ``from_values`` relabels
    arbitrary hashable colour values into this form.  ``num_colours`` is
    derived: shown, but not compared.
    """

    __slots__ = ("graph", "colour", "num_colours")
    _eq = _hash = ("graph", "colour")

    graph: Graph
    colour: tuple[int, ...]
    num_colours: int

    def __init__(self, graph, colour) -> None:
        # A tuple, so a list the caller keeps cannot change the colouring.
        colour = tuple(colour)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "colour", colour)
        if len(colour) != graph.m:
            raise ValueError(f"expected {graph.m} colour entries, got {len(colour)}")
        if not set(map(type, colour)) <= {int}:
            bad = next(c for c in colour if type(c) is not int)
            raise ValueError(f"colour {bad!r} is not an int")
        # Canonical exactly when the colours in order of first appearance
        # are 0, 1, 2, ...
        firsts = list(dict.fromkeys(colour))
        if firsts != list(range(len(firsts))):
            raise ValueError("colours must be canonical: 0..c-1 in order of first appearance")
        object.__setattr__(self, "num_colours", len(firsts))

    @classmethod
    def from_values(cls, g: Graph, values) -> EdgeColouring:
        relabel: dict = {}
        return cls(g, tuple([relabel.setdefault(v, len(relabel)) for v in values]))

    def vertex_colours(self, v: int) -> frozenset[int]:
        return frozenset(self.colour[eid] for _, eid in self.graph.adjacency[v])


class ValidityReport(Record):
    """Outcome of checking a colouring against the per-vertex budget q."""

    __slots__ = ("valid", "q", "colours_used", "vertex_colour_counts", "first_violation")

    valid: bool
    q: int
    colours_used: int
    vertex_colour_counts: tuple[int, ...]
    first_violation: tuple[int, tuple[int, ...]] | None

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "q": self.q,
            "colours_used": self.colours_used,
            "vertex_colour_counts": list(self.vertex_colour_counts),
            "first_violation": None
            if self.first_violation is None
            else {
                "vertex": self.first_violation[0],
                "colours": list(self.first_violation[1]),
            },
        }


def validate(g: Graph, col: EdgeColouring, q: int) -> ValidityReport:
    """Check that every vertex sees at most ``q`` distinct incident colours.

    The first violation (smallest vertex id) is reported with the full set of
    colours seen there.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if col.graph != g:
        raise ValueError("colouring belongs to a different graph")
    colour = col.colour
    counts = tuple([len({colour[eid] for _, eid in row}) for row in g.adjacency])
    first = next((v for v, count in enumerate(counts) if count > q), None)
    return ValidityReport(
        valid=first is None,
        q=q,
        colours_used=col.num_colours,
        vertex_colour_counts=counts,
        first_violation=None
        if first is None
        else (first, tuple(sorted(col.vertex_colours(first)))),
    )


def matching_based_colouring(g: Graph) -> tuple[EdgeColouring, Matching, int]:
    """The approximation algorithm for q = 2.

    Computes a maximum matching M, gives each matching edge its own colour,
    and gives each edge-containing component of G − M one shared fresh
    colour.  Returns ``(colouring, matching, h)`` where h is the number of
    those components; the palette size is ``|M| + h``.

    :func:`~qcolour.graph.component_labels` labels every vertex with the
    least vertex of its component of G − M.  Each edge is then keyed
    by ``~eid`` if it is a matching edge and by its endpoints' label
    otherwise, and colours number the keys by first appearance in edge-id
    order.
    """
    if g.m == 0:
        raise ValueError("graph has no edges to colour")
    m = maximum_matching(g)
    label = component_labels(g, m.edges)
    key = [label[u] for u, _ in g.edges]
    for eid in m.edges.members:
        key[eid] = ~eid
    number = {k: c for c, k in enumerate(dict.fromkeys(key))}
    # Through a list, so the tuple is made at its final length.  A tuple
    # built from a map is made at a guessed length and resized, so small
    # tuples leave one free list and pile up on another: the resident set
    # of a process running many small requests kept growing.
    colouring = EdgeColouring(g, tuple(list(map(number.__getitem__, key))))
    return colouring, m, len(number) - m.size


def parse_colouring(text: str, g: Graph) -> EdgeColouring:
    """Parse ``u v colour`` lines, one per edge in edge-id order.

    The edge list must biject with the graph's: line i must name edge i
    (either endpoint order).  Colours are arbitrary nonnegative integers and
    are canonicalized on load.
    """
    records = read_records(text, 3, ColouringFormatError, "expected 'u v colour'")
    for index, ((u, v, c), edge) in enumerate(zip(records, g.edges)):
        if (u, v) != edge and (v, u) != edge:
            problem = f"expected edge {index} = {edge}, got ({u}, {v})"
        elif c < 0:
            problem = f"negative colour {c}"
        else:
            continue
        raise ColouringFormatError(f"line {record_lines(text)[index]}: {problem}")
    if len(records) > g.m:
        raise ColouringFormatError(f"line {record_lines(text)[g.m]}: more than {g.m} edges")
    if len(records) < g.m:
        raise ColouringFormatError(
            f"line {len(text.splitlines()) + 1}: expected one line per edge ({g.m}), "
            f"got {len(records)}"
        )
    return EdgeColouring.from_values(g, [c for _, _, c in records])


def serialize_colouring(col: EdgeColouring) -> str:
    """One ``u v colour`` line per edge in edge-id order, LF line endings;
    :func:`parse_colouring` reads it back.

    Two ``%`` formats write the whole document: the first fills every
    line's endpoints from the flat edge list and leaves a ``%d`` for its
    colour, the second fills the colours.  This is faster than one format
    over flat ``(u, v, colour)`` triples, and it builds no list of them."""
    lines = ("%d %d %%d\n" * col.graph.m) % tuple(chain.from_iterable(col.graph.edges))
    return lines % tuple(col.colour)
