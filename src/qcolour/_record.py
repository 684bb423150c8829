"""The frozen base of the package's record classes.

The records are plain ``__slots__`` classes, not dataclasses: the
``dataclass`` decorator generates and execs each class's methods at import,
which cost about a third of ``import qcolour.cli``.  A record class lists
its fields once, as class-level annotations, and they become its
``__slots__``.  Every record shares one constructor, :meth:`Record.__init__`,
which sets every field; a class that derives fields works them out in its
own ``__init__`` and passes them all on.  A keyword call goes through a
lambda whose parameters are the class's fields, made once per class, so the
interpreter binds the names and raises the ``TypeError`` a function would.
From Python 3.14 on a class body fills ``__annotations__`` only under
``from __future__ import annotations``, which every module here has.
"""

from __future__ import annotations


class _RecordType(type):
    """Makes each record class's ``__slots__`` its annotated fields, in order."""

    def __new__(mcs, name, bases, namespace, **kwargs):
        if "__slots__" in namespace:
            raise TypeError(f"record class {name} lists its fields as annotations, not __slots__")
        namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        return super().__new__(mcs, name, bases, namespace, **kwargs)


class Record(metaclass=_RecordType):
    """An immutable value whose fields are its class-level annotations.

    ``Record(*values, **named)`` sets the fields in annotation order and
    takes them as a function with those parameters would.  A subclass
    whose fields are not all arguments defines its own ``__init__``, works
    out the derived fields and passes every field to ``Record.__init__``;
    afterwards assigning or deleting any attribute raises
    ``AttributeError``.  ``_eq``, ``_hash`` and ``_repr`` name the fields
    that equality, the hash and ``repr`` read, in that order; each defaults
    to all fields.  Instances of different classes never compare equal.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in ("_eq", "_hash", "_repr"):
            if name not in cls.__dict__:
                setattr(cls, name, cls.__slots__)
        # The slot descriptors' setters, so a call looks nothing up by name.
        cls._setters = tuple([cls.__dict__[f].__set__ for f in cls.__slots__])
        # The fields in slot order from any call a function taking them would
        # accept; its TypeErrors name the class.
        params = ", ".join(cls.__slots__)
        bind = eval(f"lambda {params}: ({params},)", {})
        bind.__qualname__ = cls.__qualname__
        cls._binder = staticmethod(bind)

    def __init__(self, *values, **named) -> None:
        setters = self._setters
        if named or len(values) != len(setters):
            values = self._binder(*values, **named)
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
