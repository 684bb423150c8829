"""Numeric verification of the counting chain behind the approximation bounds.

Every inequality used to bound the number of colours of a valid q=2
colouring against ``|M| + h`` is checked here on a concrete instance,
with exact rational arithmetic.  Failures never raise; each check is a
:class:`BoundEntry` whose ``passed`` flag records the outcome, so a
report can be inspected or serialized even when something is violated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..graph import is_triangle_free
from .decompose import ColourDecomposition
from .pairs import RepetitionPairs

__all__ = ["BoundEntry", "BoundReport", "verify_bound_chain"]


@dataclass(frozen=True)
class BoundEntry:
    """One verified relation: ``lhs relation rhs`` with its outcome."""

    id: str
    relation: str
    lhs: Fraction
    rhs: Fraction
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "relation": self.relation,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "passed": self.passed,
        }


def _entry(eid: str, lhs: Fraction | int, rhs: Fraction | int, rel: str) -> BoundEntry:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    if rel == "<=":
        ok = lhs <= rhs
    elif rel == ">=":
        ok = lhs >= rhs
    elif rel == "==":
        ok = lhs == rhs
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown relation {rel!r}")
    return BoundEntry(id=eid, relation=rel, lhs=lhs, rhs=rhs, passed=ok)


@dataclass(frozen=True)
class BoundReport:
    """Instance statistics plus every checked relation of the chain.

    ``ratio`` is the certified quotient ``colours / (matching_size + h)``
    for the analysed colouring.  ``entries`` preserves the derivation
    order; ``all_passed`` is the conjunction of their outcomes.
    """

    n: int
    matching_size: int
    h: int
    colours: int
    matching_colours: int
    non_matching_colours: int
    paired_colours: int
    high_colours: int
    low_colours: int
    low_large: int
    low_small: int
    delta: int
    repetition_total: int
    triangle_free: bool
    ratio: Fraction
    entries: tuple[BoundEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, eid: str) -> BoundEntry:
        for e in self.entries:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "matching_size": self.matching_size,
            "h": self.h,
            "colours": self.colours,
            "matching_colours": self.matching_colours,
            "non_matching_colours": self.non_matching_colours,
            "paired_colours": self.paired_colours,
            "high_colours": self.high_colours,
            "low_colours": self.low_colours,
            "low_large": self.low_large,
            "low_small": self.low_small,
            "delta": self.delta,
            "repetition_total": self.repetition_total,
            "triangle_free": self.triangle_free,
            "ratio": str(self.ratio),
            "all_passed": self.all_passed,
            "entries": [e.to_json_dict() for e in self.entries],
        }


def verify_bound_chain(dec: ColourDecomposition, rp: RepetitionPairs) -> BoundReport:
    """Check the full counting chain on one decomposed instance.

    The stronger triangle-free tail of the chain is checked exactly when
    the graph has no triangle.  Violated relations are recorded, not
    raised.
    """
    g = dec.graph
    triangle_free = is_triangle_free(g)

    n = g.n
    msize = dec.matching.size
    h = dec.h
    c = dec.num_colours
    cm = len(dec.matching_colours)
    cn = len(dec.non_matching_colours)
    colours = rp.colours.values()
    high = [cp for cp in colours if cp.kind == "high"]
    low = [cp for cp in colours if cp.kind != "high"]
    total_rp = sum(cp.repetition for cp in colours)
    delta = sum(cp.matched for cp in high)
    n_low = len(low)
    n_low_small = sum(cp.kind == "low_small" for cp in low)
    n_low_large = n_low - n_low_small
    total_pairs = len(rp.records)

    entries: list[BoundEntry] = []

    entries.append(_entry("matching_colour_budget", cm, msize - total_rp, "<="))
    entries.append(_entry("pair_count_identity", total_pairs, cn - h, "=="))

    bad = sum(1 for cp in colours if len(cp.support) < len(cp.records) + 1)
    entries.append(_entry("pair_support_size", bad, 0, "=="))

    bad = sum(1 for cp in colours if 2 * cp.repetition < len(cp.records) - 1)
    entries.append(_entry("pair_repetition_floor", bad, 0, "=="))

    bad = sum(1 for cp in low if cp.matched > 0)
    entries.append(_entry("matched_pairs_force_high", bad, 0, "=="))

    mate = dec.matching.mate
    bad = 0
    for cp in low:
        support = cp.support
        closed = all(mate[v] in support for v in support)
        maxima = rp.seq.maximal_elements(support)
        star_ok = len(maxima) == 1 and support == {r.u for r in cp.records} | set(maxima)
        if not (closed and star_ok):
            bad += 1
    entries.append(_entry("low_support_closure", bad, 0, "=="))

    bad = sum(1 for cp in low if len(cp.support) < 4)
    entries.append(_entry("low_support_min_size", bad, 0, "=="))

    matched_records = [r for r in rp.records if r.matched]
    bad = sum(1 for r in matched_records if len(r.path) < 3)
    entries.append(_entry("matched_pair_interior", bad, 0, "=="))

    bad = sum(
        1 for r in rp.records if any(x in dec.vertex_class for x in r.path[1:-1])
    )
    entries.append(_entry("pair_interior_free", bad, 0, "=="))

    entries.append(
        _entry("cross_colour_interior_disjoint", rp.interior_clashes, 0, "==")
    )

    entries.append(
        _entry("total_vs_matching_repetition", c, msize - total_rp + cn, "<=")
    )

    rhs = sum(
        (Fraction(len(cp.records) - cp.matched, 2) for cp in high), Fraction(0)
    ) + sum((Fraction(len(cp.records) - 1, 2) for cp in low), Fraction(0))
    entries.append(_entry("repetition_lower_bound", total_rp, rhs, ">="))

    entries.append(
        _entry(
            "total_vs_pair_counts",
            c,
            cn
            + msize
            - Fraction(cn - h, 2)
            + Fraction(delta, 2)
            + Fraction(n_low, 2),
            "<=",
        )
    )

    entries.append(_entry("internal_vertex_budget", 2 * cn + delta, n, "<="))

    entries.append(
        _entry(
            "total_vs_internal_budget",
            c,
            Fraction(3 * msize, 2) + Fraction(delta + 2 * n_low, 4) + Fraction(h, 2),
            "<=",
        )
    )

    entries.append(
        _entry(
            "total_vs_low_colours",
            c,
            2 * msize - Fraction(delta + 2 * n_low, 2),
            "<=",
        )
    )

    entries.append(
        _entry("approximation_5_3", c, Fraction(5 * (msize + h), 3), "<=")
    )

    if triangle_free:
        bad = sum(1 for r in matched_records if len(r.path) < 4)
        entries.append(_entry("matched_pair_interior_tf", bad, 0, "=="))

        bad = sum(
            1
            for cp in low
            if cp.kind == "low_small" and not any(len(r.path) >= 3 for r in cp.records)
        )
        entries.append(_entry("low_small_has_interior", bad, 0, "=="))

        entries.append(
            _entry(
                "total_vs_low_split",
                c,
                2 * msize - 2 * n_low_large - n_low_small,
                "<=",
            )
        )

        entries.append(
            _entry(
                "total_vs_pair_counts_split",
                c,
                cn
                + msize
                - Fraction(cn - h, 2)
                + Fraction(delta, 2)
                + Fraction(n_low_large + n_low_small, 2),
                "<=",
            )
        )

        entries.append(
            _entry(
                "internal_vertex_budget_tf", 2 * cn + 2 * delta + n_low_small, n, "<="
            )
        )

        entries.append(
            _entry(
                "total_vs_internal_budget_tf",
                c,
                Fraction(3 * msize, 2)
                + Fraction(2 * n_low_large + n_low_small, 4)
                + Fraction(h, 2),
                "<=",
            )
        )

        entries.append(
            _entry("approximation_8_5", c, Fraction(8 * (msize + h), 5), "<=")
        )

    return BoundReport(
        n=n,
        matching_size=msize,
        h=h,
        colours=c,
        matching_colours=cm,
        non_matching_colours=cn,
        paired_colours=len(rp.colours),
        high_colours=len(high),
        low_colours=n_low,
        low_large=n_low_large,
        low_small=n_low_small,
        delta=delta,
        repetition_total=total_rp,
        triangle_free=triangle_free,
        ratio=Fraction(c, msize + h),
        entries=tuple(entries),
    )
