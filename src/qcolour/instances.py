"""Instance generators and the checked-in lower-bound instance.

The module provides three sources of test instances:

* :func:`fig5_lower_bound` — a fixed 72-vertex graph with a perfect
  matching, checked in as data files together with a valid 58-colour
  witness.  The greedy/matching algorithm uses 37 colours on it, so the
  instance certifies that the algorithm's output can be a factor 58/37
  below the optimum.
* :func:`random_with_perfect_matching` and
  :func:`random_triangle_free_with_pm` — seeded random families that
  always contain a perfect matching (the triangle-free family is
  bipartite by construction).
* :func:`named` — small standard graphs addressed by a name such as
  ``cycle_4`` or ``petersen``.

Generators are pure functions of their parameters: the same arguments
always produce the identical instance.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations

from ._record import Record
from .colouring import (
    EdgeColouring,
    matching_based_colouring,
    parse_colouring,
    validate,
)
from .graph import Graph, is_triangle_free, parse_graph
from .matching import Matching, is_maximum, is_perfect, parse_matching
# maximum_matching is not called here; bench/tracing.py probes it here.
from .matching import maximum_matching  # noqa: F401

__all__ = [
    "CertifiedInstance",
    "fig5_lower_bound",
    "named",
    "random_triangle_free_with_pm",
    "random_with_perfect_matching",
]


class CertifiedInstance(Record):
    """A graph bundled with a maximum matching and validated colourings.

    ``alg_colouring`` is the output of the matching-based algorithm on
    ``graph``; ``certified_colouring``, when present, is a known-valid
    colouring with more colours, witnessing a gap between the algorithm
    and the optimum.  Construction re-checks every claimed property, and
    ``h`` and ``triangle_free`` are derived, not stored, so holding a
    ``CertifiedInstance`` is proof the instance is sound.
    """

    graph: Graph
    matching: Matching
    alg_colouring: EdgeColouring
    certified_colouring: EdgeColouring | None
    generator: str
    seed: int | None

    def __init__(self, *values, **named) -> None:
        super().__init__(*values, **named)
        graph = self.graph
        if not is_maximum(graph, self.matching):
            raise ValueError("instance matching is not maximum")
        report = validate(graph, self.alg_colouring, 2)
        if not report.valid:
            raise ValueError("algorithm colouring is not a valid 2-colouring")
        if self.certified_colouring is not None:
            report = validate(graph, self.certified_colouring, 2)
            if not report.valid:
                raise ValueError("certified colouring is not a valid 2-colouring")

    @property
    def alg_colours(self) -> int:
        """Number of colours the matching-based algorithm used."""
        return self.alg_colouring.num_colours

    @property
    def h(self) -> int:
        """Edge-containing components of G - M: algorithm colours beyond |M|."""
        return self.alg_colours - self.matching.size

    @property
    def triangle_free(self) -> bool:
        return is_triangle_free(self.graph)

    @property
    def certified_ratio(self) -> Fraction | None:
        """certified colours / algorithm colours, when a witness exists."""
        if self.certified_colouring is None:
            return None
        return Fraction(self.certified_colouring.num_colours, self.alg_colours)


def _load_data(name: str) -> str:
    # Imported here, not at the top: only the fig5 loader reads package data,
    # and importlib.resources is a large share of a cold start (README,
    # "Start-up").
    from importlib import resources

    return resources.files("qcolour").joinpath("data", name).read_text(encoding="utf-8")


def fig5_lower_bound() -> CertifiedInstance:
    """Load the checked-in 72-vertex lower-bound instance.

    The graph is triangle-free and carries a perfect matching of 36
    edges; removing the matching leaves a single edge-containing
    component, so the matching-based algorithm outputs 36 + 1 = 37
    colours.  The bundled certificate is a valid 58-colour assignment,
    giving the ratio 58/37.  The counts are re-verified on every load; a
    failure means the data files were corrupted.
    """
    g = parse_graph(_load_data("fig5.graph"))
    m = parse_matching(_load_data("fig5.matching"), g)
    cert = parse_colouring(_load_data("fig5_58.colouring"), g)

    if g.n != 72:
        raise ValueError(f"lower-bound instance must have 72 vertices, got {g.n}")
    if not is_perfect(g, m):
        raise ValueError("lower-bound matching must be perfect")

    inst = _certify(g, "fig5_lower_bound", None, cert)
    if inst.matching.edges != m.edges:
        raise ValueError("checked-in matching is not the computed maximum matching")
    if inst.h != 1:
        raise ValueError(f"expected one residual component, got {inst.h}")
    if inst.alg_colours != 37:
        raise ValueError(f"expected 37 algorithm colours, got {inst.alg_colours}")
    if cert.num_colours != 58:
        raise ValueError(f"expected a 58-colour certificate, got {cert.num_colours}")
    return inst


def _certify(
    g: Graph, generator: str, seed: int | None, certified: EdgeColouring | None = None
) -> CertifiedInstance:
    """``g`` with the algorithm's colouring and maximum matching, which must
    be perfect, and the optional witness ``certified``."""
    col, m, _ = matching_based_colouring(g)
    if not is_perfect(g, m):
        raise RuntimeError("generator promised a perfect matching")
    return CertifiedInstance(
        graph=g,
        matching=m,
        alg_colouring=col,
        certified_colouring=certified,
        generator=generator,
        seed=seed,
    )


def _planted(n: int, extra_edge_prob: float, seed: int, generator: str, split) -> CertifiedInstance:
    """The body of both random families.

    ``split(order)``, given the vertices in shuffled order, returns the
    planted pairs of a perfect matching and the candidate extra edges
    (normalised pairs).  Each candidate that is not planted is kept with
    probability ``extra_edge_prob``, one draw each, in candidate order.
    The planted edges come first, so :func:`maximum_matching` returns
    exactly them.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"extra_edge_prob must lie in [0, 1], got {extra_edge_prob}")

    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    planted, candidates = split(order)
    pm = sorted((u, v) if u < v else (v, u) for u, v in planted)
    pm_set = set(pm)
    extras = [e for e in candidates if e not in pm_set and rng.random() < extra_edge_prob]
    return _certify(Graph(n, pm + sorted(extras)), generator, seed)


def random_with_perfect_matching(
    n: int, extra_edge_prob: float, seed: int
) -> CertifiedInstance:
    """Random graph on ``n`` vertices guaranteed to contain a perfect matching.

    A random pairing of the vertices forms the first ``n/2`` edges; every
    other vertex pair is then added independently with probability
    ``extra_edge_prob``.  Because the pairing edges appear first in the
    edge list and are pairwise disjoint, :func:`maximum_matching` returns
    exactly that pairing, which keeps generated instances reproducible
    edge-for-edge.
    """
    return _planted(
        n, extra_edge_prob, seed, "random_with_perfect_matching",
        lambda order: (zip(order[0::2], order[1::2]), combinations(range(n), 2)),
    )


def random_triangle_free_with_pm(
    n: int, extra_edge_prob: float, seed: int
) -> CertifiedInstance:
    """Random bipartite graph with a perfect matching across the two sides.

    Vertices are split randomly into two halves matched index-to-index;
    each remaining cross pair is added with probability
    ``extra_edge_prob``.  Bipartite graphs have no odd cycles, so every
    output is triangle-free.
    """

    def split(order):
        left, right = order[: n // 2], order[n // 2 :]
        return zip(left, right), ((u, v) if u < v else (v, u) for u in left for v in right)

    return _planted(n, extra_edge_prob, seed, "random_triangle_free_with_pm", split)


_NAMED_PATTERN = re.compile(r"^(path|cycle|complete|star)_(\d+)$")


def named(name: str) -> Graph:
    """Build a standard small graph from a name like ``cycle_4``.

    Recognised families: ``path_k`` (k vertices), ``cycle_k`` (k >= 3),
    ``complete_k``, ``star_k`` (one centre joined to k leaves), and
    ``petersen``.
    """
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        edges = tuple(
            (u, v) if u < v else (v, u) for u, v in outer + inner + spokes
        )
        return Graph(10, tuple(sorted(edges)))

    match = _NAMED_PATTERN.match(name)
    if match is None:
        raise ValueError(f"unknown instance name: {name!r}")
    family, k_text = match.groups()
    k = int(k_text)

    if family == "path":
        if k < 1:
            raise ValueError("path_k requires k >= 1")
        return Graph(k, tuple((i, i + 1) for i in range(k - 1)))
    if family == "cycle":
        if k < 3:
            raise ValueError("cycle_k requires k >= 3")
        return Graph(k, tuple(sorted((i, (i + 1) % k) if i + 1 < k else (0, i) for i in range(k))))
    if family == "complete":
        if k < 1:
            raise ValueError("complete_k requires k >= 1")
        return Graph(k, tuple((u, v) for u in range(k) for v in range(u + 1, k)))
    if k < 1:
        raise ValueError("star_k requires k >= 1")
    return Graph(k + 1, tuple((0, i) for i in range(1, k + 1)))
