"""The object directory.

Section 4.2 of the paper names "object directory management" as a primary
OODB component absent from conventional systems.  The directory maps a
logical OID to its physical location (class heap + RID), which is what
makes kimdb OIDs *logical*: relocating a record (page overflow,
reclustering) only touches the directory entry, never the references
stored inside other objects.

The directory is plain data, so the cyclic collector does not scan it:
it is keyed by the OID's int value, as the object buffer is, and an
entry is an exact ``(class_name, page_id, slot)`` tuple, which CPython
stops tracking because it holds only atoms (a namedtuple it would
track).  An entry is never changed, only replaced whole
(:meth:`ObjectDirectory.move`), so a lock-free reader never pairs a
class with another class's page and slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.oid import OID
from ..errors import ObjectNotFoundError
from .heap import RID

#: ``(class_name, page_id, slot)``: where one object is stored.
Entry = Tuple[str, int, int]


class ObjectDirectory:
    """OID value -> entry map with a per-class set of OID values.
    ``scale_stamp`` moves whenever a class's count changes bit length
    (the plan cache rechecks extent scales only then) and on clear."""

    def __init__(self) -> None:
        self._entries: Dict[int, Entry] = {}
        self._by_class: Dict[str, Set[int]] = {}
        self.scale_stamp = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: OID) -> bool:
        return oid.value in self._entries

    def add(self, oid: OID, class_name: str, rid: RID) -> None:
        value = oid.value
        if value in self._entries:
            raise ObjectNotFoundError(
                "directory already has an entry for %r" % (oid,)
            )
        self._entries[value] = (class_name, rid[0], rid[1])
        self._join(class_name, value)

    def lookup(self, oid: OID) -> Entry:
        entry = self._entries.get(oid.value)
        if entry is None:
            raise ObjectNotFoundError("no object with OID %r" % (oid,))
        return entry

    def try_lookup(self, oid: OID) -> Optional[Entry]:
        return self._entries.get(oid.value)

    def move(self, oid: OID, class_name: str, rid: RID) -> None:
        """``oid`` now lives at ``rid`` in ``class_name``'s heap (a
        relocation, or a migration between classes): a fresh entry."""
        value = oid.value
        old_class = self.lookup(oid)[0]
        if old_class != class_name:
            self._leave(old_class, value)
            self._join(class_name, value)
        self._entries[value] = (class_name, rid[0], rid[1])

    def remove(self, oid: OID) -> Entry:
        entry = self._entries.pop(oid.value, None)
        if entry is None:
            raise ObjectNotFoundError("no object with OID %r" % (oid,))
        self._leave(entry[0], oid.value)
        return entry

    def _join(self, class_name: str, value: int) -> None:
        members = self._by_class.setdefault(class_name, set())
        members.add(value)
        count = len(members)
        if not count & (count - 1):  # now a power of two: one bit longer
            self.scale_stamp += 1

    def _leave(self, class_name: str, value: int) -> None:
        members = self._by_class[class_name]
        members.discard(value)
        count = len(members)
        if not count & (count + 1):  # was a power of two: one bit shorter
            self.scale_stamp += 1

    def oids_of_class(self, class_name: str) -> List[OID]:
        """OIDs of direct instances of ``class_name`` only, sorted."""
        values = sorted(self._by_class.get(class_name, ()))
        return [OID(value, class_name) for value in values]

    def count_of_class(self, class_name: str) -> int:
        """Number of direct instances of ``class_name``, in O(1)."""
        return len(self._by_class.get(class_name, ()))

    def max_oid_value(self) -> int:
        return max(self._entries, default=0)

    def clear(self) -> None:
        self._entries.clear()
        self._by_class.clear()
        self.scale_stamp += 1
