"""Slotted pages.

Classic slotted-page layout: a small header, a slot directory growing
forward from the header, and record bodies growing backward from the end
of the page.  Deleting a record tombstones its slot (slot numbers are
stable because RIDs embed them); updating in place succeeds only when the
new body fits the old cell or the page has room, otherwise the caller
relocates the record.

Layout (big-endian)::

    [0:4)   crc32 over bytes [4:page_size)
    [4:6)   slot_count
    [6:8)   free_end   -- offset one past the last free byte (records
                          occupy [free_end:page_size))
    then slot_count entries of 4 bytes each: offset (2) + length (2).
    offset == 0xFFFF marks a tombstone.

Every serialized page carries its checksum; every deserialization
verifies it (raising :class:`~repro.errors.PageCorruptError`), so a torn
page write or flipped bit on disk is *detected* at the buffer pool
instead of surfacing as garbage records.  A page of all zero bytes is
the one checksum-exempt form: it is what the pager allocates and means
"never written" — an empty page.

**State list.**  A scan wants the whole page, so a page keeps the list
of its live records' states (:meth:`SlottedPage.states`), from the
second scan of an unchanged page on, and drops it on every insert,
update and delete, with the buffer frame, and on every schema change
(:meth:`SlottedPage.forget`: a kept state is coerced to its class's
definition at the time it was decoded).  The list is handed out as a
tuple, so no caller can change what the next one gets.  Its validity
is a stamp, not identity: :meth:`forget` bumps a counter (a write
calls it *after* changing the slots), and a list is returned only
while the counter still reads what it read before the list was built.  The
storage manager never keeps the list of a page holding a long-object
stub, whose state lives in chunks on other pages.

**Free space.**  A page keeps the total length of its record bodies as
a running count that every insert, update and delete adjusts, so
:attr:`SlottedPage.free_space` and :meth:`SlottedPage.fits` cost O(1)
instead of a pass over the slots.  The count is computed on first use:
parsing a page (:meth:`SlottedPage.from_bytes`, the read path of every
buffer miss) makes no extra pass, and a page that is only read never
pays for it.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import PageCorruptError, PageFullError, StorageError

_CRC = struct.Struct(">I")
_HEADER = struct.Struct(">IHH")  # crc, slot_count, free_end
_SLOT = struct.Struct(">HH")
TOMBSTONE = 0xFFFF


class SlottedPage:
    """A parsed, mutable slotted page."""

    __slots__ = ("page_size", "_slots", "_body_bytes", "_writes", "_states")

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        # Record bodies per slot (None = tombstone).  Offsets are
        # recomputed at serialization time (records are always compacted on
        # write, which keeps fragmentation bounded without a vacuum pass).
        self._slots: List[Optional[bytes]] = []
        #: Total length of the live bodies; None until first needed
        #: (module docstring, "Free space").
        self._body_bytes: Optional[int] = None
        #: Slot changes so far: what the page's state list is stamped with.
        self._writes = 0
        #: (writes, state tuple or None): the page's state list.
        self._states: Optional[Tuple[int, Optional[Tuple[Any, ...]]]] = None

    # -- geometry -----------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def live_count(self) -> int:
        return sum(1 for body in self._slots if body is not None)

    def _record_bytes(self) -> int:
        """The running body total, computed on first use."""
        total = self._body_bytes
        if total is None:
            total = self._body_bytes = sum(
                len(body) for body in self._slots if body is not None
            )
        return total

    @property
    def free_space(self) -> int:
        return (
            self.page_size
            - _HEADER.size
            - _SLOT.size * len(self._slots)
            - self._record_bytes()
        )

    def fits(self, record: bytes) -> bool:
        """Would ``record`` fit as a new insert (slot entry included)?"""
        return self.free_space >= len(record) + _SLOT.size

    # -- record operations ---------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert a record, reusing a tombstoned slot when available."""
        if len(record) > self.page_size - _HEADER.size - _SLOT.size:
            raise StorageError(
                "record of %d bytes can never fit a %d-byte page"
                % (len(record), self.page_size)
            )
        for slot, body in enumerate(self._slots):
            if body is None:
                if self.free_space < len(record):
                    raise PageFullError("page full")
                self._slots[slot] = bytes(record)
                self._body_bytes += len(record)
                self.forget()
                return slot
        if not self.fits(record):
            raise PageFullError("page full")
        self._slots.append(bytes(record))
        self._body_bytes += len(record)
        self.forget()
        return len(self._slots) - 1

    def read(self, slot: int) -> bytes:
        body = self.body(slot)
        if body is None:
            raise StorageError("slot %d is deleted" % slot)
        return body

    def states(
        self, build: Callable[["SlottedPage"], Tuple[List[Any], bool]]
    ) -> Sequence[Any]:
        """Every live record's state, in slot order.

        ``build(self)`` makes the list and says whether it may be kept;
        a kept list is a shared tuple, admitted on the second call on an
        unchanged page (module docstring).
        """
        writes = self._writes
        kept = self._states
        if kept is None or kept[0] != writes:
            self._states = (writes, None)
            return build(self)[0]
        if kept[1] is not None:
            return kept[1]
        states, keep = build(self)
        if not keep:
            return states
        frozen = tuple(states)
        self._states = (writes, frozen)
        return frozen

    def update(self, slot: int, record: bytes) -> None:
        old = self.body(slot)
        if old is None:
            raise StorageError("slot %d is deleted" % slot)
        if self.free_space + len(old) < len(record):
            raise PageFullError("updated record does not fit")
        self._slots[slot] = bytes(record)
        self._body_bytes += len(record) - len(old)
        self.forget()

    def delete(self, slot: int) -> None:
        old = self.body(slot)
        if old is None:
            raise StorageError("slot %d is already deleted" % slot)
        self._slots[slot] = None
        if self._body_bytes is not None:
            self._body_bytes -= len(old)
        self.forget()

    def forget(self) -> None:
        """Drop the state list and move the stamp, so a list a racing
        reader built before now is never returned: after a slot change,
        a schema change, or when the buffer pool gave up this frame."""
        self._states = None
        self._writes += 1

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield (slot, body) for every live record."""
        for slot, body in enumerate(self._slots):
            if body is not None:
                yield slot, body

    def body(self, slot: int) -> Optional[bytes]:
        """The record in ``slot``; None when the slot is tombstoned."""
        if not 0 <= slot < len(self._slots):
            raise StorageError("slot %d out of range" % slot)
        return self._slots[slot]

    # -- (de)serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        buf = bytearray(self.page_size)
        free_end = self.page_size
        slot_entries = []
        for body in self._slots:
            if body is None:
                slot_entries.append((TOMBSTONE, 0))
                continue
            free_end -= len(body)
            buf[free_end : free_end + len(body)] = body
            slot_entries.append((free_end, len(body)))
        _HEADER.pack_into(buf, 0, 0, len(self._slots), free_end)
        pos = _HEADER.size
        for offset, length in slot_entries:
            _SLOT.pack_into(buf, pos, offset, length)
            pos += _SLOT.size
        if pos > free_end:
            raise StorageError("slot directory overlaps record area")
        _CRC.pack_into(buf, 0, zlib.crc32(bytes(buf[_CRC.size :])))
        return bytes(buf)

    @staticmethod
    def verify_bytes(data: bytes, page_id: Optional[int] = None) -> None:
        """Raise :class:`PageCorruptError` unless ``data`` checksums.

        An all-zero page (never written since allocation) is valid and
        empty; any other content must carry a matching CRC.
        """
        (stored,) = _CRC.unpack_from(data, 0)
        if stored == zlib.crc32(data[_CRC.size :]):
            return
        if not any(data):
            return
        where = "page %s" % page_id if page_id is not None else "page"
        raise PageCorruptError(
            "%s failed checksum verification (stored 0x%08x): torn write "
            "or on-disk corruption" % (where, stored),
            page_id=page_id,
        )

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        page_id: Optional[int] = None,
        verify: bool = True,
    ) -> "SlottedPage":
        if verify:
            cls.verify_bytes(data, page_id)
        if type(data) is not bytes:
            data = bytes(data)  # bodies are sliced out: they must be immutable
        page = cls(len(data))
        _crc, slot_count, _free_end = _HEADER.unpack_from(data, 0)
        directory_end = _HEADER.size + _SLOT.size * slot_count
        if directory_end > len(data):
            raise StorageError("slot directory runs past the page end")
        # Eager, in one pass: a lazily parsed slot could be materialized
        # by a lock-free snapshot reader over a racing writer's new body.
        page._slots = [
            None if offset == TOMBSTONE else data[offset : offset + length]
            for offset, length in _SLOT.iter_unpack(data[_HEADER.size : directory_end])
        ]
        return page

    @classmethod
    def empty(cls, page_size: int) -> "SlottedPage":
        return cls(page_size)

    def __repr__(self) -> str:
        return "<SlottedPage %d/%d slots, %d bytes free>" % (
            self.live_count,
            self.slot_count,
            self.free_space,
        )
