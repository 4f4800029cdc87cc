"""Object identifiers.

Core concept 1 of the paper: "Any real-world entity is uniformly modeled
as an object, and is associated with a unique identifier."  kimdb OIDs are
logical (they never encode a physical address; the object directory maps
OID -> page location), immutable, hashable and totally ordered so they can
serve as B+-tree keys and as deterministic tie-breakers in query results.
"""

from __future__ import annotations

import itertools
from typing import Iterator


class OID:
    """A logical object identifier.

    OIDs compare by their integer value only; the optional ``hint`` (the
    class name at creation time) exists purely to make debug output
    readable and is ignored by equality and hashing, because an object's
    identity must survive schema evolution that migrates instances.
    """

    __slots__ = ("value", "hint")

    def __init__(self, value: int, hint: str = "") -> None:
        if value < 0:
            raise ValueError("OID value must be non-negative, got %r" % (value,))
        self.value = value
        self.hint = hint

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OID) and other.value == self.value

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other: "OID") -> bool:
        if not isinstance(other, OID):
            return NotImplemented
        return self.value < other.value

    def __le__(self, other: "OID") -> bool:
        if not isinstance(other, OID):
            return NotImplemented
        return self.value <= other.value

    def __gt__(self, other: "OID") -> bool:
        if not isinstance(other, OID):
            return NotImplemented
        return self.value > other.value

    def __ge__(self, other: "OID") -> bool:
        if not isinstance(other, OID):
            return NotImplemented
        return self.value >= other.value

    def __hash__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        if self.hint:
            return "@%d<%s>" % (self.value, self.hint)
        return "@%d" % (self.value,)


class OIDGenerator:
    """Monotonic OID factory.

    The generator is resumable: a database re-opened from disk seeds the
    counter past the highest OID it finds in the object directory so that
    identifiers are never reused, even across process restarts.
    """

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)
        self._last = start - 1

    @property
    def last_issued(self) -> int:
        """The integer value of the most recently issued OID (0 if none)."""
        return self._last

    def next(self, hint: str = "") -> OID:
        """Issue a fresh OID, optionally tagged with a class-name hint."""
        self._last = next(self._counter)
        return OID(self._last, hint)

    def advance_past(self, value: int) -> None:
        """Ensure future OIDs are strictly greater than ``value``."""
        if value > self._last:
            self._counter = itertools.count(value + 1)
            self._last = value

    def issued(self) -> Iterator[int]:  # pragma: no cover - debugging aid
        """Iterate hypothetical future values without consuming them."""
        return itertools.count(self._last + 1)
