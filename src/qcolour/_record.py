"""The frozen base of the package's record classes.

The records are plain ``__slots__`` classes, not dataclasses: the
``dataclass`` decorator generates and execs each class's methods at import,
which cost about a third of ``import qcolour.cli``.  Instead every record
shares one constructor, :meth:`Record.__init__`, which fills the slots in
order, so a class writes no constructor of its own.  Its fields are listed
in ``__slots__`` and again in class-level annotations; the annotations
document the field types, and nothing reads them at run time.
"""

from __future__ import annotations


class Record:
    """An immutable value with fields in ``__slots__``.

    ``Record(*values, **named)`` sets the fields in ``__slots__`` order and
    takes them as a function with those parameters would.  A subclass
    whose slots are not all arguments defines its own ``__init__`` and sets
    each field with ``object.__setattr__``; afterwards assigning or deleting
    any attribute raises ``AttributeError``.  ``_eq``, ``_hash`` and
    ``_repr`` name the fields that equality, the hash and ``repr`` read, in
    that order; each defaults to ``__slots__``.  Instances of different
    classes never compare equal.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in ("_eq", "_hash", "_repr"):
            if name not in cls.__dict__:
                setattr(cls, name, cls.__slots__)
        # The slot descriptors' setters, so a call looks nothing up by name.
        cls._setters = tuple([cls.__dict__[f].__set__ for f in cls.__slots__])

    def __init__(self, *values, **named) -> None:
        setters = self._setters
        if named or len(values) != len(setters):
            values = _bind(self.__class__, values, named)
        for put, value in zip(setters, values):
            put(self, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._eq
        return tuple([getattr(self, f) for f in names]) == tuple([getattr(other, f) for f in names])

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, f) for f in self._hash]))

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._repr])
        return f"{self.__class__.__qualname__}({fields})"

    def __setstate__(self, state) -> None:
        # pickle and copy hand a slots-only instance (None, {slot: value}).
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _bind(cls: type, values: tuple, named: dict) -> list:
    """The fields of ``cls(*values, **named)`` in slot order, or the
    ``TypeError`` a function taking the fields as parameters would raise."""
    fields = cls.__slots__
    call = cls.__qualname__
    if len(values) > len(fields):
        raise TypeError(
            f"{call}() takes {len(fields)} positional arguments but {len(values)} were given"
        )
    bound = dict(zip(fields, values))
    for name, value in named.items():
        if name not in fields:
            raise TypeError(f"{call}() got an unexpected keyword argument {name!r}")
        if name in bound:
            raise TypeError(f"{call}() got multiple values for argument {name!r}")
        bound[name] = value
    if len(bound) < len(fields):
        missing = ", ".join([repr(f) for f in fields if f not in bound])
        raise TypeError(f"{call}() missing required arguments: {missing}")
    return [bound[f] for f in fields]
