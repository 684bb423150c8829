"""Maximum edge colouring with a per-vertex colour budget.

A colouring of the edges is valid for budget ``q`` when every vertex is
incident to at most ``q`` distinct colours; the goal is to use as many
colours as possible.  The package provides the matching-based
approximation for ``q = 2``, exact solvers for small instances, and an
analysis engine that certifies the approximation guarantees on concrete
inputs.
"""

from __future__ import annotations

from .colouring import (
    ColouringFormatError,
    EdgeColouring,
    ValidityReport,
    matching_based_colouring,
    parse_colouring,
    serialize_colouring,
    validate,
)
from .exact import (
    ExactResult,
    PatternAbsentError,
    SearchIncompleteError,
    anti_ramsey_star,
    optimal_colouring,
)
from .graph import (
    Component,
    EdgeSubset,
    Graph,
    GraphFormatError,
    components,
    is_triangle_free,
    parse_graph,
    serialize_graph,
)
from .instances import (
    CertifiedInstance,
    fig5_lower_bound,
    named,
    random_triangle_free_with_pm,
    random_with_perfect_matching,
)
from .matching import (
    Matching,
    MatchingFormatError,
    is_maximum,
    is_perfect,
    maximum_matching,
    parse_matching,
    serialize_matching,
)

__version__ = "0.1.0"

__all__ = [
    "CertifiedInstance",
    "ColouringFormatError",
    "Component",
    "EdgeColouring",
    "EdgeSubset",
    "ExactResult",
    "Graph",
    "GraphFormatError",
    "Matching",
    "MatchingFormatError",
    "PatternAbsentError",
    "SearchIncompleteError",
    "ValidityReport",
    "__version__",
    "anti_ramsey_star",
    "components",
    "fig5_lower_bound",
    "is_maximum",
    "is_perfect",
    "is_triangle_free",
    "matching_based_colouring",
    "maximum_matching",
    "named",
    "optimal_colouring",
    "parse_colouring",
    "parse_graph",
    "parse_matching",
    "random_triangle_free_with_pm",
    "random_with_perfect_matching",
    "serialize_colouring",
    "serialize_graph",
    "serialize_matching",
    "validate",
]
