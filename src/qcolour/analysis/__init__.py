"""Structural analysis of valid q=2 edge colourings against a perfect matching.

The pipeline has four stages.  Only the first takes the graph, matching
and colouring; every later stage takes the decomposition it returns:

1. :func:`decompose` — split a colouring into matching / non-matching
   colours, locate every class inside the graph minus the matching, and
   map each class vertex to its class.
2. :func:`build_cascading_sequence` ``(dec)`` — grow the rooted forests
   that connect the non-matching classes of each component, ordering each
   tree and extracting its pairs (one per leaf) as it is grown.
3. :func:`collect_repetition_pairs` ``(dec, seq)`` — record the pairs the
   sequence carries, check them, and keep one :class:`ColourPairs` per
   paired matching colour: its pairs, support, repetition content and
   class (high, low-large or low-small).
4. :func:`verify_bound_chain` ``(dec, rp)`` — check every counting
   relation as an integer comparison, both sides scaled by its
   denominator (the 8/5 tail exactly when the graph is triangle-free),
   and report the certified colour/ratio statistics.  It reads the pairs
   and the decomposition, never the forests.

:func:`analyse` runs all four.
"""

from __future__ import annotations

from ..colouring import EdgeColouring
from ..graph import Graph
from ..matching import Matching
from .bounds import BoundEntry, BoundReport, verify_bound_chain
from .decompose import (
    AnalysisInvariantError,
    ColourDecomposition,
    DisconnectedColourClassError,
    ImperfectMatchingError,
    InvalidColouringError,
    StructuralError,
    UnanchoredComponentError,
    decompose,
    matched_colour_map,
)
from .forests import RootedForestSeq, RootedTree, build_cascading_sequence
from .pairs import ColourPairs, PairRecord, RepetitionPairs, collect_repetition_pairs
from .repetition import repetition_content, tree_repetition_pairs

__all__ = [
    "AnalysisInvariantError",
    "BoundEntry",
    "BoundReport",
    "ColourDecomposition",
    "ColourPairs",
    "DisconnectedColourClassError",
    "ImperfectMatchingError",
    "InvalidColouringError",
    "PairRecord",
    "RepetitionPairs",
    "RootedForestSeq",
    "RootedTree",
    "StructuralError",
    "UnanchoredComponentError",
    "analyse",
    "build_cascading_sequence",
    "collect_repetition_pairs",
    "decompose",
    "matched_colour_map",
    "repetition_content",
    "tree_repetition_pairs",
    "verify_bound_chain",
]


def analyse(g: Graph, matching: Matching, colouring: EdgeColouring) -> BoundReport:
    """Run the full pipeline and return the bound report for one instance."""
    dec = decompose(g, matching, colouring)
    seq = build_cascading_sequence(dec)
    rp = collect_repetition_pairs(dec, seq)
    return verify_bound_chain(dec, rp)
