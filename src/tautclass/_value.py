"""Base class of the package's small immutable value types.

``dataclasses`` would generate the same methods, but importing it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``: about 1 MB of resident
memory and 12 ms per process on CPython 3.11, more than the package's
own modules cost once compiled.  Every CLI call pays that at start-up.
"""

from __future__ import annotations


class Value:
    """Equality, hashing and repr by the fields named in ``__slots__``.

    A subclass lists its fields in ``__slots__`` and sets them in its
    ``__init__`` through ``_set``; the instance then refuses attribute
    assignment.  Instances of different classes never compare equal.
    """

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
