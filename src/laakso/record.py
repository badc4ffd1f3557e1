"""The immutable record base of the library's value types.

Records are plain ``__slots__`` classes with their own ``__init__``, so that
importing the library generates no code and loads neither ``dataclasses``
nor the ``inspect`` module it pulls in.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equality, hashing and a repr over named fields; nothing is assigned after ``__init__``.

    ``_fields`` names the compared fields, at least two, and defaults to the
    slots.  One ``attrgetter`` over them, set when the subclass is defined,
    serves ``==`` (records of one class only), the hash of their tuple and
    the ``Name(field=value, ...)`` repr; ``copy`` and ``pickle`` restore the
    slots as stored, without running ``__init__`` again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        return _restore, (self.__class__, tuple(getattr(self, name) for name in self.__slots__))


def _restore(cls: type, values: tuple) -> Record:
    """A record of cls whose slots hold values, in slot order; ``__init__`` does not run."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


def slot_setters(cls: type) -> tuple:
    """Each slot's ``__set__``: faster than ``object.__setattr__`` for records built on every op."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)
