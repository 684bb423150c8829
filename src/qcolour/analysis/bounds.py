"""Numeric verification of the counting chain behind the approximation bounds.

Every inequality used to bound the number of colours of a valid q=2
colouring against ``|M| + h`` is checked here on a concrete instance, as
an integer comparison after both sides are multiplied by the relation's
denominator.  Failures never raise; each check is a
:class:`BoundEntry` whose ``passed`` flag records the outcome, so a
report can be inspected or serialized even when something is violated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .._record import Record
from ..graph import is_triangle_free
from .decompose import ColourDecomposition
from .pairs import RepetitionPairs

__all__ = ["BoundEntry", "BoundReport", "verify_bound_chain"]


class BoundEntry(Record):
    """One verified relation ``lhs relation rhs`` with its outcome, both
    sides stored as integer numerators over the common positive
    denominator ``den``."""

    __slots__ = ("id", "relation", "lhs_num", "rhs_num", "den", "passed")

    id: str
    relation: str
    lhs_num: int
    rhs_num: int
    den: int
    passed: bool

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_num, self.den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.den)

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "relation": self.relation,
            "lhs": _fraction_text(self.lhs_num, self.den),
            "rhs": _fraction_text(self.rhs_num, self.den),
            "passed": self.passed,
        }


def _fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, with no Fraction
    built: ``num/den`` in lowest terms, or the integer when that is one."""
    d = gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


def _entry(eid: str, lhs: int, rhs: int, rel: str, den: int = 1) -> BoundEntry:
    """``lhs`` and ``rhs`` are the two sides already multiplied by ``den``."""
    if rel == "<=":
        ok = lhs <= rhs
    elif rel == ">=":
        ok = lhs >= rhs
    elif rel == "==":
        ok = lhs == rhs
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown relation {rel!r}")
    return BoundEntry(eid, rel, lhs, rhs, den, ok)


class BoundReport(Record):
    """Instance statistics plus every checked relation of the chain.

    ``ratio`` is the certified quotient ``colours / (matching_size + h)``
    for the analysed colouring.  ``entries`` preserves the derivation
    order; ``all_passed`` is the conjunction of their outcomes.
    """

    __slots__ = (
        "n", "matching_size", "h", "colours", "matching_colours", "non_matching_colours",
        "paired_colours", "high_colours", "low_colours", "low_large", "low_small", "delta",
        "repetition_total", "triangle_free", "ratio", "entries",
    )

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
        # Every field but ratio and entries as it is, in slot order.  Those
        # two are the last slots, so the keys keep their order only while
        # no slot is added after them.
        out = {f: getattr(self, f) for f in self.__slots__ if f not in ("ratio", "entries")}
        out["ratio"] = str(self.ratio)
        out["all_passed"] = self.all_passed
        out["entries"] = [e.to_json_dict() for e in self.entries]
        return out


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
        # A low colour's pairs must form a star: the support has one maximum
        # under the cascading order, and every other vertex is a first
        # coordinate.  collect_repetition_pairs checks u != v and u before v
        # in its tree, so no first coordinate is maximal; the order is
        # acyclic, so some other vertex is.  A star leaves just that one.
        star_ok = len(support - {r.u for r in cp.records}) == 1
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

    # Twin of matching_colour_budget: both sides plus cn, as c = cm + cn.
    entries.append(_entry("total_vs_matching_repetition", c, msize - total_rp + cn, "<="))

    rhs = sum(len(cp.records) - cp.matched for cp in high) + sum(
        len(cp.records) - 1 for cp in low
    )
    entries.append(_entry("repetition_lower_bound", 2 * total_rp, rhs, ">=", 2))

    entries.append(
        _entry(
            "total_vs_pair_counts",
            2 * c,
            2 * (cn + msize) - (cn - h) + delta + n_low,
            "<=",
            2,
        )
    )

    entries.append(_entry("internal_vertex_budget", 2 * cn + delta, n, "<="))

    entries.append(
        _entry(
            "total_vs_internal_budget",
            4 * c,
            6 * msize + delta + 2 * n_low + 2 * h,
            "<=",
            4,
        )
    )

    entries.append(
        _entry("total_vs_low_colours", 2 * c, 4 * msize - delta - 2 * n_low, "<=", 2)
    )

    entries.append(_entry("approximation_5_3", 3 * c, 5 * (msize + h), "<=", 3))

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

        # Twin of total_vs_pair_counts, as n_low = n_low_large + n_low_small.
        entries.append(
            _entry(
                "total_vs_pair_counts_split",
                2 * c,
                2 * (cn + msize) - (cn - h) + delta + n_low_large + n_low_small,
                "<=",
                2,
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
                4 * c,
                6 * msize + 2 * n_low_large + n_low_small + 2 * h,
                "<=",
                4,
            )
        )

        entries.append(_entry("approximation_8_5", 5 * c, 8 * (msize + h), "<=", 5))

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
