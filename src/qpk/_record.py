"""Immutable records: named tuples that equal only their own type.

``class R(record("x y", 0.0))`` gives R the fields x and y (y defaults to
0.0), keyword construction, the repr ``R(x=..., y=...)`` and the tuple's
own hash, unpacking and ordering. A record whose values need checking
defines ``__new__``, which ``_replace`` and ``_make`` go through too.
Assigning or deleting any attribute raises AttributeError. R declares
``__slots__ = ()`` unless it keeps an instance dict for a
``functools.cached_property``: the dict slows every field read.
"""

from collections import namedtuple


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


def record(names: str, *defaults):
    """A tuple base class with the space-separated fields names, the last
    len(defaults) of them defaulting to defaults."""

    class Record(namedtuple("Record", names, defaults=defaults)):
        __slots__ = ()
        __setattr__ = __delattr__ = _frozen
        __hash__ = tuple.__hash__

        def __eq__(self, other):
            return type(other) is type(self) and tuple.__eq__(self, other)

        def __ne__(self, other):
            return not self == other

        @classmethod
        def _make(cls, iterable):
            return cls(*iterable)

    return Record
