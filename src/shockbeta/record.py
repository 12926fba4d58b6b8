"""Frozen value records: equal, hashed and shown by their fields.

The package's records are plain classes with an explicit ``__init__``.  The
immutable ones (the flux, the shock, its neutral frequency, the grid) derive
from :class:`Frozen`, which compares, hashes and shows them by the values of
the attributes they name in ``_fields`` and refuses any later assignment.
"""

from __future__ import annotations


class Frozen:
    """Base of an immutable record whose value is its ``_fields``.

    A subclass sets its attributes in ``__init__`` through its ``__dict__``,
    as assignment raises :class:`AttributeError`.  Two records are equal when
    they are of the same class and their ``_fields`` are equal; an attribute
    not named there (a derived array, say) takes no part.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to '{name}' of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete '{name}' of a frozen {type(self).__name__}")
