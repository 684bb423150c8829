"""Collection and classification of matching-colour pairs.

Once a cascading forest sequence exists, every tree yields one pair per
leaf.  Grouping those pairs by their shared matching colour gives, for
each paired colour, a support set whose repetition content drives the
counting arguments.  Colours whose support repeats enough are *high*;
the rest are *low*, and low colours with small supports are tracked
separately.
"""

from __future__ import annotations

from itertools import combinations

from .._record import Record
from .decompose import AnalysisInvariantError, ColourDecomposition, matched_colour_map
from .forests import RootedForestSeq
# tree_repetition_pairs is not called here; bench/tracing.py probes it here.
from .repetition import repetition_content, tree_repetition_pairs  # noqa: F401

__all__ = ["ColourPairs", "PairRecord", "RepetitionPairs", "collect_repetition_pairs"]


class PairRecord(Record):
    """One extracted pair: two vertices sharing a matching colour.

    ``path`` is the unique tree path from ``u`` to ``v``; ``matched`` is
    true when ``u`` and ``v`` are partners of the same matching edge.
    """

    u: int
    v: int
    colour: int
    path: tuple[int, ...]
    matched: bool


class ColourPairs(Record):
    """The pairs of one paired matching colour and its class.

    ``support`` holds both ends of every record and ``repetition`` is its
    repetition content.  The colour is ``"high"`` when that content
    reaches half the pair count less the ``matched`` count, otherwise it
    is low: ``"low_large"`` with a support of six or more vertices,
    ``"low_small"`` with four.
    """

    records: tuple[PairRecord, ...]
    support: frozenset[int]
    repetition: int
    kind: str

    @property
    def matched(self) -> int:
        """Number of records whose ends are matching partners."""
        return sum(r.matched for r in self.records)


class RepetitionPairs(Record):
    """All pairs of a forest sequence, grouped and classified by colour.

    ``records`` lists the pairs tree by tree, in the sequence's order; the
    sequence itself is not kept.  ``colours`` maps each paired matching
    colour, in increasing order, to its :class:`ColourPairs`; it is compared
    but, being a dict, not hashed.  ``interior_clashes`` counts the record
    pairs of different colours whose paths share an interior vertex.
    """

    _hash = ("records", "interior_clashes")

    records: tuple[PairRecord, ...]
    colours: dict[int, ColourPairs]
    interior_clashes: int


def _interior_clashes(records: list[PairRecord]) -> int:
    """Count the record pairs of different colours whose paths share an
    interior vertex, in one pass over the interiors.

    Raises :class:`AnalysisInvariantError` unless matched pairs have
    interior-disjoint paths.  Only vertices whose interiors mix colours
    produce candidate pairs, so on a valid sequence the pass never
    enumerates a pair.
    """
    owners: dict[int, dict[int, list[int]]] = {}  # vertex -> colour -> records
    for i, r in enumerate(records):
        for x in r.path[1:-1]:
            owners.setdefault(x, {}).setdefault(r.colour, []).append(i)
    clashes: set[tuple[int, int]] = set()
    for by_colour in owners.values():
        through = [i for ids in by_colour.values() for i in ids]
        if sum(records[i].matched for i in through) > 1:
            raise AnalysisInvariantError("matched pairs must have interior-disjoint paths")
        if len(by_colour) > 1:
            clashes.update(
                (i, j)
                for i, j in combinations(sorted(through), 2)
                if records[i].colour != records[j].colour
            )
    return len(clashes)


def collect_repetition_pairs(
    dec: ColourDecomposition, seq: RootedForestSeq
) -> RepetitionPairs:
    """Record, check and classify the pairs of ``seq``, the forest sequence
    built from ``dec``.

    Reads each tree's pairs from ``seq.tree_pairs``, records their paths,
    and checks what the bound chain relies on: distinct first coordinates
    across all trees, each before its second in the tree's postorder, equal
    matching colours, monochromatic pair paths whose interior avoids the
    shared colour, and interior-disjoint paths for matched pairs.  A failed
    check raises :class:`AnalysisInvariantError` naming it.
    """
    if seq.graph != dec.graph:
        raise ValueError("forest sequence and decomposition disagree on graph")
    col, m = dec.colouring, dec.matching
    mcl = matched_colour_map(col, m)

    records: list[PairRecord] = []
    firsts_seen: set[int] = set()
    for tree, pairs in zip(seq.trees(), seq.tree_pairs):
        for u, v in pairs:
            # decompose rejects an imperfect matching, so colour is not None.
            colour = mcl[u]
            if u == v or mcl[v] != colour:
                raise AnalysisInvariantError("pairs must join two vertices of one matching colour")
            if u in firsts_seen:
                raise AnalysisInvariantError("pair first coordinates must be globally distinct")
            firsts_seen.add(u)
            if tree.index[u] > tree.index[v]:
                raise AnalysisInvariantError("pairs must respect the post-order")
            path = tree.path(u, v)
            # The path's edges are the parent edges of its vertices but the topmost.
            top = max(path, key=tree.index.__getitem__)
            if any(col.colour[tree.parent_edge[x]] != colour for x in path if x != top):
                raise AnalysisInvariantError("pair paths must be monochromatic")
            if any(mcl[x] == colour for x in path[1:-1]):
                raise AnalysisInvariantError("interior vertices must not repeat the pair colour")
            # Positional: a keyword call binds through the class's lambda, slower.
            records.append(PairRecord(u, v, colour, path, m.mate[u] == v))
    interior_clashes = _interior_clashes(records)

    by_colour: dict[int, list[PairRecord]] = {}
    for r in records:
        by_colour.setdefault(r.colour, []).append(r)
    colours: dict[int, ColourPairs] = {}
    for colour in sorted(by_colour):
        recs = tuple(by_colour[colour])
        support = frozenset(r.u for r in recs) | frozenset(r.v for r in recs)
        rp = repetition_content(support, m, col)
        if 2 * rp >= len(recs) - sum(r.matched for r in recs):
            kind = "high"
        elif len(support) >= 6:
            kind = "low_large"
        elif len(support) == 4:
            kind = "low_small"
        else:
            raise AnalysisInvariantError(
                "low supports are closed under matching partners, "
                "hence even and of size at least four"
            )
        colours[colour] = ColourPairs(recs, support, rp, kind)

    return RepetitionPairs(
        records=tuple(records),
        colours=colours,
        interior_clashes=interior_clashes,
    )
