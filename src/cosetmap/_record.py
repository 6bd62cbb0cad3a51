"""Immutable value records on `__slots__`.

A record class lists its fields, in order, as a tuple in `__slots__` and writes
its own `__init__`: check the arguments, then store them all at once with
`self._store(...)`, in field order.  `_store` sets each field and keeps the
tuple of all of them as `_values`; it refuses a count that does not match
`__slots__`.  The base derives the rest from those two: refused assignment and
deletion, `==` only within one class on the field tuple, `hash` of that tuple,
the repr `Name(field=value, ...)`, `__match_args__` and pickling by the
constructor.  `==` and `hash` read the one `_values` slot, which keeps them as
fast as the per-class methods `dataclasses` generates.
"""

from __future__ import annotations

# stores a field while __init__ builds the record, past the refusing __setattr__
_set = object.__setattr__


class Record:
    __slots__ = ("_values",)

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _store(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)
        _set(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values
