"""The base class of psvsim's frozen records.

A class becomes a record by subclassing ``Record`` and annotating its
fields; nothing else.  ``__init_subclass__`` registers the fields with
``dataclass(init=False, repr=False, eq=False)``, so ``dataclasses.replace``,
``fields`` and ``asdict`` work, and no code is generated: a frozen
dataclass writes its methods as source text and ``exec``s them at every
import.  The class inherits ``__init__``, ``__repr__``, ``__eq__``,
``__hash__``, ``__setattr__`` and ``__delattr__`` from ``Record``, and they
behave as the frozen dataclass's.

``__init__`` binds positional and keyword arguments to the fields, a
missing one to its default, and raises ``TypeError`` for a missing, unknown
or repeated one.  It stores them in ``self.__dict__``, which the guard does
not see, then calls ``__post_init__``, where a class checks its fields and
writes a normalized value back to ``self.__dict__``.  Equality and hashing
go by the tuple of field values in declaration order (so a record holding
an array or a dict raises where a frozen dataclass does), the repr is
``Name(field=value, ...)``, and any assignment or deletion raises
``FrozenInstanceError``.
"""

from __future__ import annotations

import reprlib
from dataclasses import MISSING, FrozenInstanceError, dataclass


class Record:
    def __init_subclass__(cls):
        dataclass(cls, init=False, repr=False, eq=False)

    def __init__(self, *args, **kwargs):
        fields, values = self.__dataclass_fields__, self.__dict__
        for key, value in zip(fields, args):
            values[key] = value
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields):
                raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} positional "
                                f"arguments but {len(args)} were given")
            for key, value in kwargs.items():
                if key not in fields or key in values:
                    problem = "multiple values for" if key in values else "an unexpected keyword"
                    raise TypeError(f"{type(self).__qualname__}() got {problem} argument {key!r}")
                values[key] = value
            for key, field in fields.items():
                if key not in values:
                    if field.default is MISSING:
                        raise TypeError(f"{type(self).__qualname__}() missing required argument {key!r}")
                    values[key] = field.default
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__dataclass_fields__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    @reprlib.recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__dataclass_fields__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
