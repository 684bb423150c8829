"""Collection and classification of matching-colour pairs.

Once a cascading forest sequence exists, every tree yields one pair per
leaf.  Grouping those pairs by their shared matching colour gives, for
each paired colour, a support set whose repetition content drives the
counting arguments.  Colours whose support repeats enough are *high*;
the rest are *low*, and low colours with small supports are tracked
separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .decompose import ColourDecomposition, matched_colour_map
from .forests import RootedForestSeq
# tree_repetition_pairs is not called here; bench/tracing.py probes it here.
from .repetition import repetition_content, tree_repetition_pairs  # noqa: F401

__all__ = ["PairRecord", "RepetitionPairs", "collect_repetition_pairs"]


@dataclass(frozen=True)
class PairRecord:
    """One extracted pair: two vertices sharing a matching colour.

    ``path`` is the unique tree path from ``u`` to ``v``; ``matched`` is
    true when ``u`` and ``v`` are partners of the same matching edge.
    """

    u: int
    v: int
    colour: int
    path: tuple[int, ...]
    matched: bool


@dataclass(frozen=True)
class RepetitionPairs:
    """All pairs of a forest sequence, grouped and classified by colour.

    ``by_colour[j]`` lists the records of colour ``j``; ``supports[j]`` is
    the vertex support of colour ``j`` (both ends of every pair),
    ``firsts[j]`` the first coordinates of its pairs, ``matched_pairs[j]``
    the records whose ends are matching partners, and ``repetition[j]`` the
    repetition content of the support.  A paired colour is *high* when its
    content reaches half the pair count less the matched-pair count,
    otherwise *low*; ``low_large`` and ``low_small`` split the low colours
    by support size.  ``interior_clashes`` counts the record pairs of
    different colours whose paths share an interior vertex.
    """

    seq: RootedForestSeq
    records: tuple[PairRecord, ...]
    by_colour: dict[int, tuple[PairRecord, ...]] = field(hash=False)
    supports: dict[int, frozenset[int]] = field(hash=False)
    firsts: dict[int, frozenset[int]] = field(hash=False)
    matched_pairs: dict[int, tuple[PairRecord, ...]] = field(hash=False)
    repetition: dict[int, int] = field(hash=False)
    high: frozenset[int]
    low: frozenset[int]
    low_large: frozenset[int]
    low_small: frozenset[int]
    interior_clashes: int

    @property
    def paired_colours(self) -> frozenset[int]:
        return self.high | self.low

    def pairs_of(self, colour: int) -> tuple[PairRecord, ...]:
        return self.by_colour.get(colour, ())

    @property
    def total_repetition(self) -> int:
        return sum(self.repetition.values())


def _interior_clashes(records: list[PairRecord]) -> int:
    """Count the record pairs of different colours whose paths share an
    interior vertex, in one pass over the interiors.

    Asserts that matched pairs have interior-disjoint paths.  Only vertices
    whose interiors mix colours produce candidate pairs, so on a valid
    sequence the pass never enumerates a pair.
    """
    owners: dict[int, dict[int, list[int]]] = {}  # vertex -> colour -> records
    for i, r in enumerate(records):
        for x in r.path[1:-1]:
            owners.setdefault(x, {}).setdefault(r.colour, []).append(i)
    clashes: set[tuple[int, int]] = set()
    for by_colour in owners.values():
        through = [i for ids in by_colour.values() for i in ids]
        assert sum(records[i].matched for i in through) <= 1, (
            "matched pairs must have interior-disjoint paths"
        )
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
    and asserts the structural guarantees the pairing construction does
    not check itself: distinct first coordinates across all trees, equal
    matching colours, monochromatic pair paths whose interior avoids the
    shared colour, and interior-disjoint paths for matched pairs.  The
    order of each pair is certified where the tree order is built, by
    :func:`tree_repetition_pairs`.
    """
    if seq.graph is not dec.graph:
        raise ValueError("forest sequence and decomposition disagree on graph")
    col, m = dec.colouring, dec.matching
    mcl = matched_colour_map(col, m)

    records: list[PairRecord] = []
    firsts_seen: set[int] = set()
    for tree, pairs in zip(seq.trees(), seq.tree_pairs):
        for u, v in pairs:
            colour = mcl[u]
            assert u != v and colour is not None
            assert u not in firsts_seen, "pair first coordinates must be globally distinct"
            firsts_seen.add(u)
            assert mcl[v] == colour
            path = tree.path(u, v)
            for eid in tree.path_edges(u, v):
                assert col.colour[eid] == colour, "pair paths must be monochromatic"
            for x in path[1:-1]:
                assert mcl[x] != colour, "interior vertices must not repeat the pair colour"
            records.append(
                PairRecord(u=u, v=v, colour=colour, path=path, matched=m.mate[u] == v)
            )
    interior_clashes = _interior_clashes(records)

    by_colour: dict[int, list[PairRecord]] = {}
    for r in records:
        by_colour.setdefault(r.colour, []).append(r)

    supports: dict[int, frozenset[int]] = {}
    firsts: dict[int, frozenset[int]] = {}
    matched_pairs: dict[int, tuple[PairRecord, ...]] = {}
    repetition: dict[int, int] = {}
    high = set()
    low = set()
    low_large = set()
    low_small = set()
    for colour in sorted(by_colour):
        recs = by_colour[colour]
        support = frozenset(r.u for r in recs) | frozenset(r.v for r in recs)
        supports[colour] = support
        firsts[colour] = frozenset(r.u for r in recs)
        matched_pairs[colour] = tuple(r for r in recs if r.matched)
        rp = repetition_content(support, m, col)
        repetition[colour] = rp
        if 2 * rp >= len(recs) - len(matched_pairs[colour]):
            high.add(colour)
        else:
            low.add(colour)
            if len(support) >= 6:
                low_large.add(colour)
            else:
                assert len(support) == 4, (
                    "low supports are closed under matching partners, "
                    "hence even and of size at least four"
                )
                low_small.add(colour)

    return RepetitionPairs(
        seq=seq,
        records=tuple(records),
        by_colour={c: tuple(recs) for c, recs in sorted(by_colour.items())},
        supports=supports,
        firsts=firsts,
        matched_pairs=matched_pairs,
        repetition=repetition,
        high=frozenset(high),
        low=frozenset(low),
        low_large=frozenset(low_large),
        low_small=frozenset(low_small),
        interior_clashes=interior_clashes,
    )
