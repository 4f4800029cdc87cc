"""Heap files: unordered record storage with stable record ids.

kimdb gives every class its own heap file (a list of slotted pages), the
segment-per-class layout ORION used.  That makes class scans sequential
and gives the clustering policy (experiment E6) a meaningful notion of
"place this object near that one".

A record is addressed by its RID, a plain ``(page id, slot)`` tuple,
stable while the record is updated in place: a tuple of ints is data
the cyclic collector stops tracking.

Placement: an unhinted insert appends to the tail page, growing the
heap when the tail is full; a hinted insert keeps its cluster run
(:meth:`HeapFile.insert`).  A record that outgrows its page relocates
*unhinted* — the only page a hint could name is the one that just
refused it — so relocations fill the tail instead of leaving a fresh,
nearly empty page behind each one.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..errors import PageFullError, StorageError
from .buffer import BufferPool
from .page import SlottedPage


#: Record identifier: (page id, slot) (module docstring).
RID = Tuple[int, int]


class HeapFile:
    """An append-friendly bag of records on slotted pages."""

    def __init__(self, buffer: BufferPool, name: str, page_ids: Optional[List[int]] = None) -> None:
        self.buffer = buffer
        self.name = name
        self.page_ids: List[int] = list(page_ids or [])
        #: ``page_ids`` as a set, for the ownership checks on every access.
        self._owned = set(self.page_ids)

    def _grow(self) -> int:
        page_id = self.buffer.new_page()
        self.page_ids.append(page_id)
        self._owned.add(page_id)
        return page_id

    # -- placement ----------------------------------------------------------

    def _try_insert(self, page_id: int, record: bytes) -> Optional[RID]:
        page = self.buffer.get_page(page_id)
        try:
            slot = page.insert(record)
        except PageFullError:
            return None
        self.buffer.mark_dirty(page_id)
        return page_id, slot

    def insert(self, record: bytes, near: Optional[RID] = None) -> RID:
        """Insert a record; with ``near`` co-locate with its page's run.

        Hinted placement: try the hint page; when it is full, grow the
        *cluster run* with a fresh page rather than falling back to the
        shared tail — otherwise every interleaved writer would stripe the
        same tail page and clustering would silently degrade (the effect
        experiment E6 measures).  Unhinted inserts, relocations among
        them, append to the tail page, allocating a new one when full.
        """
        if near is not None and near[0] in self._owned:
            rid = self._try_insert(near[0], record)
            if rid is not None:
                return rid
        elif self.page_ids:
            rid = self._try_insert(self.page_ids[-1], record)
            if rid is not None:
                return rid
        rid = self._try_insert(self._grow(), record)
        if rid is None:
            raise StorageError(
                "record of %d bytes does not fit an empty page" % len(record)
            )
        return rid

    # -- access ---------------------------------------------------------------

    def page(self, page_id: int) -> SlottedPage:
        """The (buffer-resident) page ``page_id`` of this heap."""
        if page_id not in self._owned:
            raise StorageError(
                "page %d does not belong to heap %r" % (page_id, self.name)
            )
        return self.buffer.get_page(page_id)

    def read(self, rid: RID) -> bytes:
        page_id, slot = rid
        return self.page(page_id).read(slot)

    def update(self, rid: RID, record: bytes) -> RID:
        """Update in place when possible, else relocate; returns the RID.

        A relocation is an unhinted :meth:`insert`: into the tail page's
        room, else a grown page (module docstring, "Placement").
        """
        page_id, slot = rid
        page = self.page(page_id)
        try:
            page.update(slot, record)
        except PageFullError:
            page.delete(slot)
            self.buffer.mark_dirty(page_id)
            return self.insert(record)
        self.buffer.mark_dirty(page_id)
        return rid

    def delete(self, rid: RID) -> None:
        page_id, slot = rid
        self.page(page_id).delete(slot)
        self.buffer.mark_dirty(page_id)

    def pages(self) -> Iterator[Tuple[int, SlottedPage]]:
        """Every page in heap order, fetched through the buffer as reached."""
        for page_id in list(self.page_ids):
            yield page_id, self.buffer.get_page(page_id)

    def scan(self) -> Iterator[Tuple[RID, bytes]]:
        """All live records in page order (sequential-scan order)."""
        for page_id, page in self.pages():
            for slot, body in page.records():
                yield (page_id, slot), body

    @property
    def page_count(self) -> int:
        return len(self.page_ids)

    def __repr__(self) -> str:
        return "<HeapFile %s: %d pages>" % (self.name, len(self.page_ids))
