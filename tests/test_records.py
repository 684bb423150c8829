"""Record semantics of the sixteen value classes.

For each class: ``==`` against an equal but separately built instance and
``!=`` when a compared field differs, equal hashes for equal hashable
instances, the exact ``repr``, immutability, and pickle / copy round trips
that keep the class, the value and every derived attribute.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import pytest


def _cases() -> dict:
    """name -> (build an instance, build one differing in a compared field,
    the constructor's fields, the repr or the SHA-256 of a long one, the
    derived attributes a copy must carry over).

    The classes are imported when a test runs, not at collection: the bench
    tests import qcolour afresh while they are collected, and pickle looks a
    class up in the modules loaded now.
    """
    from qcolour import (
        Component,
        EdgeColouring,
        EdgeSubset,
        Graph,
        Matching,
        optimal_colouring,
        validate,
    )
    from qcolour.analysis import (
        ColourPairs,
        PairRecord,
        RepetitionPairs,
        RootedForestSeq,
        RootedTree,
        analyse,
        decompose,
    )
    from qcolour.analysis.bounds import BoundEntry
    from qcolour.instances import fig5_lower_bound, named, random_with_perfect_matching

    def path3() -> Graph:
        return Graph(3, ((0, 1), (1, 2)))

    def fig5_decomposition(alg: bool = False):
        fig5 = fig5_lower_bound()
        colouring = fig5.alg_colouring if alg else fig5.certified_colouring
        return decompose(fig5.graph, fig5.matching, colouring)

    def fig5_report(alg: bool = False):
        fig5 = fig5_lower_bound()
        colouring = fig5.alg_colouring if alg else fig5.certified_colouring
        return analyse(fig5.graph, fig5.matching, colouring)

    def glued_sequence(one_forest: bool = False) -> RootedForestSeq:
        g = Graph(4, ((0, 1), (0, 2), (2, 3)))
        first = RootedTree.build(g, 0, {1: 0, 2: 0})
        if one_forest:
            return RootedForestSeq(g, ((first,),), ((),))
        second = RootedTree.build(g, 2, {3: 2})
        return RootedForestSeq(g, ((first,), (second,)), ((), ((3, 2),)))

    def pair_record(matched: bool = False) -> PairRecord:
        return PairRecord(0, 9, 0, (0, 5, 9), matched)

    def colour_pairs(kind: str = "low_small") -> ColourPairs:
        return ColourPairs((pair_record(),), frozenset({0, 9}), 0, kind)

    path3_text = "Graph(n=3, edges=((0, 1), (1, 2)))"
    cycle4_text = "Graph(n=4, edges=((0, 1), (0, 3), (1, 2), (2, 3)))"
    record_text = "PairRecord(u=0, v=9, colour=0, path=(0, 5, 9), matched=False)"
    colour_pairs_text = (
        f"ColourPairs(records=({record_text},), support=frozenset({{0, 9}}), repetition=0, "
        "kind='low_small')"
    )
    glued_text = "Graph(n=4, edges=((0, 1), (0, 2), (2, 3)))"
    random4_text = "Graph(n=4, edges=((0, 3), (1, 2), (0, 1), (0, 2), (1, 3)))"

    return {
        "Graph": (
            path3,
            lambda: Graph(3, ((0, 1),)),
            ("n", "edges"),
            path3_text,
            ("adjacency",),
        ),
        "EdgeSubset": (
            lambda: EdgeSubset(path3(), frozenset({1})),
            lambda: EdgeSubset(path3(), frozenset({0})),
            ("graph", "members"),
            f"EdgeSubset(graph={path3_text}, members=frozenset({{1}}))",
            (),
        ),
        "Component": (
            lambda: Component((0, 1, 2), (0, 1)),
            lambda: Component((0, 1, 2), (0,)),
            ("vertices", "edge_ids"),
            "Component(vertices=(0, 1, 2), edge_ids=(0, 1))",
            (),
        ),
        "Matching": (
            lambda: Matching.from_edge_ids(path3(), {0}),
            lambda: Matching.from_edge_ids(path3(), {1}),
            ("edges",),
            f"Matching(edges=EdgeSubset(graph={path3_text}, members=frozenset({{0}})))",
            ("mate", "mate_edge"),
        ),
        "EdgeColouring": (
            lambda: EdgeColouring(path3(), (0, 1)),
            lambda: EdgeColouring(path3(), (0, 0)),
            ("graph", "colour"),
            f"EdgeColouring(graph={path3_text}, colour=(0, 1), num_colours=2)",
            ("num_colours",),
        ),
        "ValidityReport": (
            lambda: validate(named("star_3"), EdgeColouring(named("star_3"), (0, 1, 2)), 2),
            lambda: validate(named("star_3"), EdgeColouring(named("star_3"), (0, 1, 2)), 3),
            ("valid", "q", "colours_used", "vertex_colour_counts", "first_violation"),
            "ValidityReport(valid=False, q=2, colours_used=3, vertex_colour_counts=(3, 1, 1, 1), "
            "first_violation=(0, (0, 1, 2)))",
            (),
        ),
        "ExactResult": (
            lambda: optimal_colouring(named("cycle_4")),
            lambda: optimal_colouring(named("path_4")),
            ("opt", "witness", "nodes_explored", "complete"),
            f"ExactResult(opt=4, witness=EdgeColouring(graph={cycle4_text}, colour=(0, 1, 2, 3), "
            "num_colours=4), nodes_explored=4, complete=True)",
            (),
        ),
        "CertifiedInstance": (
            lambda: random_with_perfect_matching(4, 0.5, 1),
            lambda: random_with_perfect_matching(4, 0.5, 2),
            ("graph", "matching", "alg_colouring", "certified_colouring", "generator", "seed"),
            f"CertifiedInstance(graph={random4_text}, matching=Matching(edges=EdgeSubset("
            f"graph={random4_text}, members=frozenset({{0, 1}}))), alg_colouring=EdgeColouring("
            f"graph={random4_text}, colour=(0, 1, 2, 2, 2), num_colours=3), "
            "certified_colouring=None, generator='random_with_perfect_matching', seed=1)",
            (),
        ),
        "ColourDecomposition": (
            fig5_decomposition,
            lambda: fig5_decomposition(alg=True),
            (
                "graph",
                "matching",
                "colouring",
                "matching_colours",
                "non_matching_colours",
                "gm_components",
                "component_colours",
                "vertex_class",
            ),
            "9b2a88e985ab88998755d5a3355ce94fbb2184d0b0f307b111761324e1f97188",
            (),
        ),
        "RootedTree": (
            lambda: RootedTree.build(path3(), 0, {1: 0, 2: 1}),
            lambda: RootedTree.build(path3(), 2, {1: 2, 0: 1}),
            ("graph", "root", "children"),
            f"RootedTree(graph={path3_text}, root=0, children={{0: (1,), 1: (2,), 2: ()}}, "
            "postorder=(2, 1, 0))",
            ("parent", "parent_edge", "postorder", "index"),
        ),
        "RootedForestSeq": (
            glued_sequence,
            lambda: glued_sequence(one_forest=True),
            ("graph", "forests", "tree_pairs"),
            f"RootedForestSeq(graph={glued_text}, forests=((RootedTree(graph={glued_text}, root=0, "
            "children={0: (1, 2), 1: (), 2: ()}, postorder=(1, 2, 0)),), "
            f"(RootedTree(graph={glued_text}, root=2, children={{2: (3,), 3: ()}}, "
            "postorder=(3, 2)),)), tree_pairs=((), ((3, 2),)))",
            ("_trees",),
        ),
        "PairRecord": (
            pair_record,
            lambda: pair_record(matched=True),
            ("u", "v", "colour", "path", "matched"),
            record_text,
            (),
        ),
        "ColourPairs": (
            colour_pairs,
            lambda: colour_pairs(kind="high"),
            ("records", "support", "repetition", "kind"),
            colour_pairs_text,
            (),
        ),
        "RepetitionPairs": (
            lambda: RepetitionPairs((pair_record(),), {0: colour_pairs()}, 0),
            lambda: RepetitionPairs((pair_record(),), {0: colour_pairs()}, 1),
            ("records", "colours", "interior_clashes"),
            f"RepetitionPairs(records=({record_text},), colours={{0: {colour_pairs_text}}}, "
            "interior_clashes=0)",
            (),
        ),
        "BoundEntry": (
            lambda: BoundEntry("approximation_5_3", "<=", 7, 5, 3, False),
            lambda: BoundEntry("approximation_5_3", "<=", 7, 5, 1, False),
            ("id", "relation", "lhs_num", "rhs_num", "den", "passed"),
            "BoundEntry(id='approximation_5_3', relation='<=', lhs_num=7, rhs_num=5, den=3, "
            "passed=False)",
            (),
        ),
        "BoundReport": (
            fig5_report,
            lambda: fig5_report(alg=True),
            (
                "n",
                "matching_size",
                "h",
                "colours",
                "matching_colours",
                "non_matching_colours",
                "paired_colours",
                "high_colours",
                "low_colours",
                "low_large",
                "low_small",
                "delta",
                "repetition_total",
                "triangle_free",
                "ratio",
                "entries",
            ),
            "637823cb870e1d29203c7595cdfd11ce584518e747f760ef7c7739c6055b8185",
            (),
        ),
    }


NAMES = [
    "BoundEntry",
    "BoundReport",
    "CertifiedInstance",
    "ColourDecomposition",
    "ColourPairs",
    "Component",
    "EdgeColouring",
    "EdgeSubset",
    "ExactResult",
    "Graph",
    "Matching",
    "PairRecord",
    "RepetitionPairs",
    "RootedForestSeq",
    "RootedTree",
    "ValidityReport",
]

# A RootedTree holds its ``children`` dict in its hash, as the sequence holds
# its trees, so neither hashes.
UNHASHABLE = {"RootedTree", "RootedForestSeq"}


def test_every_record_class_is_covered():
    assert sorted(_cases()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    make, differ, _, _, _ = _cases()[name]
    a, b, c = make(), make(), differ()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert a.__eq__(object()) is NotImplemented
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, _, _, expected, _ = _cases()[name]
    text = repr(make())
    if expected.startswith(name + "("):
        assert text == expected
    else:
        assert hashlib.sha256(text.encode()).hexdigest() == expected


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _, fields, _, derived = _cases()[name]
    record = make()
    before = repr(record)
    for field in (*fields, *derived):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "clone",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_keep_class_and_value(name, clone):
    make, _, _, _, derived = _cases()[name]
    record = make()
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record
    assert repr(twin) == repr(record)
    for attr in derived:
        assert getattr(twin, attr) == getattr(record, attr)


@pytest.mark.parametrize("name", NAMES)
def test_constructor_takes_the_fields_by_position_or_keyword(name):
    make, _, fields, _, _ = _cases()[name]
    record = make()
    cls = type(record)
    values = [getattr(record, f) for f in fields]
    assert cls(*values) == record
    assert cls(**dict(zip(fields, values))) == record
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    # A missing field, a field given twice and an unknown keyword each raise
    # the TypeError a function would, naming the class and the field.
    def fails(message: str):
        return pytest.raises(TypeError, match=rf"^{name}\b.* {message}$")

    with fails(f"missing 1 required positional argument: '{fields[-1]}'"):
        cls(*values[:-1])
    with fails(f"got multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})
    # As many keywords as fields, one of them unknown.
    with fails("got an unexpected keyword argument 'no_such_field'"):
        cls(**dict(zip(fields[:-1], values)), no_such_field=values[-1])


def test_a_record_class_lists_its_fields_once():
    # The annotations are the fields and become the slots, in order; a class
    # that also wrote __slots__ would keep two lists that must agree.
    from qcolour._record import Record

    class Point(Record):
        x: int
        y: int

    assert Point.__slots__ == ("x", "y")
    assert Point(1, y=2) == Point(1, 2)
    with pytest.raises(TypeError, match="Twice lists its fields as annotations"):

        class Twice(Record):
            __slots__ = ("x",)
            x: int
