"""The base class of psvsim's frozen records.

``@dataclass(frozen=True)`` writes a class's ``__init__``, ``__repr__``,
``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__`` as source
text and ``exec``s it when the class is defined, so every import of the
package compiled them again; byte-code caching cannot keep them.  A record
class instead writes its own ``__init__``, inherits the other five from
``Record``, and is declared ``@dataclass(init=False, repr=False, eq=False)``:
that registers its fields, so ``dataclasses.replace``, ``fields`` and
``asdict`` work, and generates no code.

The inherited methods behave as the frozen dataclass's: equality and
hashing go by the tuple of field values in declaration order (so a record
holding an array or a dict raises where a frozen dataclass does), the repr
is ``Name(field=value, ...)``, and any assignment or deletion raises
``FrozenInstanceError``.  ``__init__`` stores its fields with
``self.__dict__.update(...)``, which the guard does not see.
"""

from __future__ import annotations

import reprlib
from dataclasses import FrozenInstanceError


class Record:
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
