"""The object directory.

Section 4.2 of the paper names "object directory management" as a primary
OODB component absent from conventional systems.  The directory maps a
logical OID to its physical location (class heap + RID), which is what
makes kimdb OIDs *logical*: relocating a record (page overflow,
reclustering) only touches the directory entry, never the references
stored inside other objects.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..core.oid import OID
from ..errors import ObjectNotFoundError
from .heap import RID


class DirectoryEntry:
    __slots__ = ("class_name", "rid")

    def __init__(self, class_name: str, rid: RID) -> None:
        self.class_name = class_name
        self.rid = rid

    def __repr__(self) -> str:
        return "<DirectoryEntry %s %r>" % (self.class_name, self.rid)


class ObjectDirectory:
    """OID -> (class, RID) map with a per-class secondary index."""

    def __init__(self) -> None:
        self._entries: Dict[OID, DirectoryEntry] = {}
        self._by_class: Dict[str, set] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: OID) -> bool:
        return oid in self._entries

    def add(self, oid: OID, class_name: str, rid: RID) -> None:
        if oid in self._entries:
            raise ObjectNotFoundError(
                "directory already has an entry for %r" % (oid,)
            )
        self._entries[oid] = DirectoryEntry(class_name, rid)
        self._by_class.setdefault(class_name, set()).add(oid)

    def lookup(self, oid: OID) -> DirectoryEntry:
        entry = self._entries.get(oid)
        if entry is None:
            raise ObjectNotFoundError("no object with OID %r" % (oid,))
        return entry

    def try_lookup(self, oid: OID) -> Optional[DirectoryEntry]:
        return self._entries.get(oid)

    def relocate(self, oid: OID, rid: RID) -> None:
        self.lookup(oid).rid = rid

    def reclass(self, oid: OID, new_class: str, rid: RID) -> None:
        """Move an object between classes (schema evolution migrate); a
        new entry, so a lock-free reader never pairs class and RID wrongly."""
        entry = self.lookup(oid)
        self._by_class.get(entry.class_name, set()).discard(oid)
        self._entries[oid] = DirectoryEntry(new_class, rid)
        self._by_class.setdefault(new_class, set()).add(oid)

    def remove(self, oid: OID) -> DirectoryEntry:
        entry = self._entries.pop(oid, None)
        if entry is None:
            raise ObjectNotFoundError("no object with OID %r" % (oid,))
        self._by_class.get(entry.class_name, set()).discard(oid)
        return entry

    def oids_of_class(self, class_name: str) -> List[OID]:
        """OIDs of direct instances of ``class_name`` only, sorted."""
        return sorted(self._by_class.get(class_name, ()))

    def count_of_class(self, class_name: str) -> int:
        """Number of direct instances of ``class_name``, in O(1)."""
        return len(self._by_class.get(class_name, ()))

    def items(self) -> Iterator[Tuple[OID, DirectoryEntry]]:
        return iter(list(self._entries.items()))

    def max_oid_value(self) -> int:
        if not self._entries:
            return 0
        return max(oid.value for oid in self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._by_class.clear()
