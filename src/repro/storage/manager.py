"""Storage manager: the facade over pager, buffer, heaps and directory.

Gives the rest of the system an object-granularity API (store / load /
overwrite / remove by OID) and owns persistence bootstrap: reopening a
database rebuilds the directory by scanning the heaps recorded in the
metadata catalog, so the directory itself never needs to be durable.

**Long objects.**  The paper lists "long unstructured data (such as
images, audio, and textual documents)" among the post-relational
requirements.  An encoded object larger than a page spills into an
overflow heap as a chain of chunks; its class heap holds a small *stub*
pointing at the chain.  The split is invisible above this module.

**Coercion.**  Every state a read hands out is coerced to its class's
current definition (lazy schema evolution, [BANE87]) once, when its
record is decoded: by :attr:`StorageManager.coerce`, which the database
sets to :meth:`~repro.core.schema.Schema.coerce` (a standalone manager
hands states out as stored).  So the object buffer and the pages' kept
state lists hold coerced states only, and a schema change drops them
all (:meth:`StorageManager.forget_states`).  The stored record is never
rewritten; :meth:`StorageManager.scan_stored` alone reads it as stored.

**Object buffer.**  The manager also keeps decoded stored states by OID
(ORION's object buffer, §4.2; DESIGN "Object buffer"): shared,
read-only, admitted on an OID's second read or on a write after its
first, never for long objects, kept past their frame, at most
:data:`OBJECT_BUFFER_STATES`.
:meth:`store_new`, :meth:`overwrite` and :meth:`remove` change every
record, and *first* move a stamp, *then* pop the OID, as does emptying
the buffer; a read that sees the stamp move drops what it admitted.
The buffer is write-through: an :meth:`overwrite` of an object that
was read before then admits the state it stored, as a decode of the
record would return it, so an update is not decoded again.  An insert
admits nothing.

**Images.**  Each write encodes its new state once, and returns the
bytes the write-ahead log takes as its images: the encoding it stored
(the after-image) and the encoding it replaced, read from the slot
before the slot changed (the before-image) — for a long object, the
chain's assembled chunks, not its stub.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import struct
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.obj import ObjectState
from ..core.oid import OID
from ..errors import PageCorruptError, StorageError
from ..obs.metrics import MetricsRegistry
from .buffer import BufferPool
from .directory import ObjectDirectory
from .heap import RID, HeapFile
from .page import SlottedPage
from .pager import DEFAULT_PAGE_SIZE, open_pager
from .serializer import decode_object, decoded_copy, encode_object


#: Magic prefix marking a long-object stub record (encode_object output
#: always starts with an 8-byte big-endian OID, whose first byte is 0 for
#: any realistic OID, so the prefix cannot collide with a real record).
_LONG_MAGIC = b"\xffKIMLONG"
_OID_VALUE = struct.Struct(">Q")  # a stub's OID value
_CHUNK_REF = struct.Struct(">IH")  # page id, slot

#: Name of the heap holding overflow chunks.
OVERFLOW_HEAP = "__overflow__"

#: Directory lookups a read makes before it gives up on an entry that
#: keeps naming a tombstoned slot or another object's record, sleeping
#: ``_FETCH_BACKOFF`` seconds longer before each retry (~0.2 s in all).
#: A racing delete settles at the first retry; a racing move may first
#: wait for a page write.
_FETCH_LOOKUPS = 64
_FETCH_BACKOFF = 0.0001

#: States (and first-read markers) the object buffer keeps at most.
OBJECT_BUFFER_STATES = 8192


class StorageManager:
    """Object store: one heap per class, one directory for all OIDs."""

    def __init__(
        self,
        path: Optional[str] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_capacity: int = 256,
        registry: Optional[MetricsRegistry] = None,
        waits=None,
    ) -> None:
        self.path = path
        #: The registry ``storage.decodes`` (and the pager's and buffer's
        #: counters) live in; a private one when built standalone.
        self.metrics = registry if registry is not None else MetricsRegistry()
        #: Records decoded: object-buffer misses, long objects, page
        #: state lists and directory rebuilds.  Buffer hits count nothing.
        self._m_decodes = self.metrics.counter("storage.decodes")
        self.pager = open_pager(path, page_size, self.metrics, waits)
        self.buffer = BufferPool(self.pager, buffer_capacity, self.metrics, waits)
        self.buffer.on_drop = self._forget_all
        #: The object buffer: OID value -> stored state, oldest admitted first.
        self._objects: "OrderedDict[int, ObjectState]" = OrderedDict()
        #: OID values read once since they last changed: a second read admits.
        self._marked: Set[int] = set()
        self.metrics.derived("storage.object_buffer_states", lambda: len(self._objects))
        #: ``coerce(class_name, state)``: what a decoded state becomes
        #: before it leaves the manager (module docstring, "Coercion").
        self.coerce: Callable[[str, ObjectState], ObjectState] = lambda _cls, state: state
        #: Moved by every write and schema change, each time to a value
        #: never stored before; a query's path memo drops what it kept
        #: when it moves.
        self._stamps = itertools.count()
        self.write_stamp = next(self._stamps)
        self.directory = ObjectDirectory()
        self._heaps: Dict[str, HeapFile] = {}
        self._extra: Dict[str, Any] = {}
        #: True when the bootstrap directory rebuild hit corrupt pages.
        #: Recovery repairs the pages from WAL full-page images and
        #: rebuilds again; anything else must not trust the directory.
        self.directory_stale = False
        if path is not None:
            self._load_metadata()

    # -- metadata (heap catalogs) -------------------------------------------

    @property
    def _meta_path(self) -> Optional[str]:
        return self.path + ".meta" if self.path else None

    def _load_metadata(self) -> None:
        meta_path = self._meta_path
        if meta_path is None or not os.path.exists(meta_path):
            return
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        for class_name, page_ids in meta.pop("heaps", {}).items():
            self._heaps[class_name] = HeapFile(self.buffer, class_name, page_ids)
        self._extra = meta
        try:
            self.rebuild_directory()
        except StorageError:
            # Torn pages (or a file shorter than the catalog expects, after
            # a crash reverted allocations).  Not fatal at open time:
            # recovery repairs pages from WAL images and rebuilds.
            self.directory_stale = True

    def save_metadata(self, extra: Optional[Dict[str, Any]] = None) -> None:
        """Persist heap catalogs (and arbitrary extra metadata) to disk.

        Extra metadata (the schema catalog) replaces what the last save
        wrote — keys an earlier build persisted are dropped — and a save
        that passes none keeps it.
        """
        meta_path = self._meta_path
        if meta_path is None:
            return
        if extra is not None:
            self._extra = dict(extra)
        meta: Dict[str, Any] = {
            "heaps": {name: heap.page_ids for name, heap in self._heaps.items()}
        }
        meta.update(self._extra)
        tmp_path = meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, meta_path)

    def load_extra_metadata(self) -> Dict[str, Any]:
        meta_path = self._meta_path
        if meta_path is None or not os.path.exists(meta_path):
            return {}
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta.pop("heaps", None)
        return meta

    def rebuild_directory(self) -> None:
        """Re-derive OID -> location by scanning every heap.

        A crash in the middle of a move between classes can leave the
        object's record on both heaps' pages: the first record found is
        kept and the others are deleted after the scan.  A crash can also
        write back a long object's stub but not its chunks, or not the
        catalog of the pages they went to: such a stub is deleted too.
        Either way recovery then rewrites the object from the log, which
        holds every write since the last checkpoint and, through the
        page-image hook, was durable before the page was written back.
        """
        self.directory.clear()
        doomed = []
        for class_name, heap in self._heaps.items():
            if class_name == OVERFLOW_HEAP:
                continue
            for rid, body in heap.scan():
                if self._is_stub(body):
                    if self._dangling(body):
                        doomed.append((heap, rid))
                        continue
                    oid = OID(self._read_stub(body)[0])
                else:
                    oid = self._decode(body).oid
                if oid in self.directory:
                    doomed.append((heap, rid))
                else:
                    self.directory.add(oid, class_name, rid)
        for heap, rid in doomed:
            heap.delete(rid)
        self.directory_stale = False

    # -- crash repair (driven by txn.recovery) ----------------------------

    def ensure_heap_pages(self) -> int:
        """Re-extend the page file to cover every cataloged heap page.

        A crash can revert page allocations (the file is shorter than it
        was) while the metadata catalog still references the higher page
        ids.  Fresh allocations are all-zero pages — exactly the state a
        never-flushed page would have had.  Returns how many pages were
        re-allocated.
        """
        max_id = -1
        for heap in self._heaps.values():
            if heap.page_ids:
                max_id = max(max_id, max(heap.page_ids))
        added = 0
        while self.pager.page_count <= max_id:
            self.pager.allocate()
            added += 1
        return added

    def repair_pages(self, images: Dict[int, bytes]) -> int:
        """Sweep every page, re-imaging corrupt ones from WAL images.

        ``images`` maps page id to the *newest* full page image in the
        log.  A corrupt page with no image is unrepairable and raises —
        that would mean a page write tore before its image was logged,
        i.e. the physical write-ahead invariant was violated (possible
        only under lying-fsync faults, where all guarantees are void).
        Returns the number of pages re-imaged.
        """
        repaired = 0
        for page_id in range(self.pager.page_count):
            data = self.pager.read_page(page_id)
            try:
                SlottedPage.verify_bytes(data, page_id)
            except PageCorruptError:
                image = images.get(page_id)
                if image is None:
                    raise PageCorruptError(
                        "page %d is corrupt and the log holds no image of it"
                        % page_id,
                        page_id=page_id,
                    )
                self.pager.write_page(page_id, image)
                self.buffer.invalidate(page_id)
                repaired += 1
        if repaired:
            self.pager.sync()
        return repaired

    # -- long objects (overflow chains) ----------------------------------

    def _max_plain_record(self) -> int:
        """Largest record stored inline on a slotted page."""
        return self.pager.page_size - 64

    @staticmethod
    def _is_stub(body: bytes) -> bool:
        return body.startswith(_LONG_MAGIC)

    def _write_long(self, data: bytes, oid: OID, class_name: str) -> bytes:
        """Spill ``data`` into the overflow heap; return the stub record."""
        heap = self.heap_for(OVERFLOW_HEAP)
        chunk_size = self._max_plain_record()
        rids = []
        previous = None
        for offset in range(0, len(data), chunk_size):
            rid = heap.insert(data[offset : offset + chunk_size], near=previous)
            rids.append(rid)
            previous = rid
        stub = bytearray(_LONG_MAGIC)
        stub += _OID_VALUE.pack(oid.value)
        name = class_name.encode("utf-8")
        stub += struct.pack(">H", len(name)) + name
        stub += struct.pack(">I", len(rids))
        for rid in rids:
            stub += _CHUNK_REF.pack(*rid)
        return bytes(stub)

    @staticmethod
    def _read_stub(body: bytes):
        pos = len(_LONG_MAGIC)
        (oid_value,) = _OID_VALUE.unpack_from(body, pos)
        pos += _OID_VALUE.size
        (name_len,) = struct.unpack_from(">H", body, pos)
        pos += 2
        class_name = body[pos : pos + name_len].decode("utf-8")
        pos += name_len
        (count,) = struct.unpack_from(">I", body, pos)
        pos += 4
        rids = list(_CHUNK_REF.iter_unpack(body[pos : pos + count * _CHUNK_REF.size]))
        return oid_value, class_name, rids

    def _dangling(self, body: bytes) -> bool:
        """Whether the stub ``body`` names a chunk the overflow heap does
        not hold: on a page it does not own, or in a slot it never wrote
        (a torn page still raises, for recovery to repair)."""
        heap = self._heaps.get(OVERFLOW_HEAP)
        if heap is None:
            return True
        try:
            return any(
                heap.page(page).body(slot) is None for page, slot in self._read_stub(body)[2]
            )
        except PageCorruptError:
            raise
        except StorageError:
            return True

    def _image(self, body: bytes) -> bytes:
        """The encoding ``body`` stores: itself, or a long object's chunks."""
        if not body.startswith(_LONG_MAGIC):
            return body
        heap = self.heap_for(OVERFLOW_HEAP)
        return b"".join(heap.read(rid) for rid in self._read_stub(body)[2])

    def _state(self, body: bytes) -> ObjectState:
        """The state the record ``body`` stores, coerced."""
        state = self._decode(self._image(body))
        return self.coerce(state.class_name, state)

    def _free_chunks(self, body: bytes) -> None:
        if not self._is_stub(body):
            return
        _oid_value, _class_name, rids = self._read_stub(body)
        heap = self.heap_for(OVERFLOW_HEAP)
        for rid in rids:
            heap.delete(rid)

    def _encode_record(self, state: ObjectState) -> Tuple[bytes, bytes]:
        """``state``'s encoding and the record that stores it: the
        encoding itself, or a stub after spilling a long object."""
        data = encode_object(state)
        if len(data) > self._max_plain_record():
            return data, self._write_long(data, state.oid, state.class_name)
        return data, data

    def _decode(self, data: bytes) -> ObjectState:
        self._m_decodes.inc()
        return decode_object(data)

    # -- heap management -------------------------------------------------------

    def heap_for(self, class_name: str) -> HeapFile:
        heap = self._heaps.get(class_name)
        if heap is None:
            heap = HeapFile(self.buffer, class_name)
            self._heaps[class_name] = heap
        return heap

    def has_heap(self, class_name: str) -> bool:
        return class_name in self._heaps

    def heap_names(self) -> List[str]:
        return sorted(self._heaps)

    # -- object operations ------------------------------------------------------

    def store_new(self, state: ObjectState, near: Optional[OID] = None) -> bytes:
        """Store a brand-new object, optionally clustered near ``near``;
        returns its encoding (the log's after-image).

        Clustering only applies when the neighbour lives in the *same*
        class heap; a cross-class hint silently degrades to normal
        placement (the common case for composite hierarchies is resolved
        by the clustering policy choosing same-heap anchors).
        """
        if state.oid in self.directory:
            raise StorageError("object %r already stored" % (state.oid,))
        heap = self.heap_for(state.class_name)
        near_rid: Optional[RID] = None
        if near is not None:
            entry = self.directory.try_lookup(near)
            if entry is not None and entry[0] == state.class_name:
                near_rid = entry[1:]
        data, record = self._encode_record(state)
        rid = heap.insert(record, near=near_rid)
        self.directory.add(state.oid, state.class_name, rid)
        self._wrote(state.oid)
        return data

    def load(self, oid: OID) -> ObjectState:
        """The stored state of ``oid``, from the object buffer when it
        holds it — shared and read-only: copy it before changing it."""
        return self._objects.get(oid.value) or self._fetch(oid)

    def _fetch(self, oid: OID) -> ObjectState:
        """:meth:`load` on a miss: read the record, then admit it."""
        retries = 0
        while True:
            stamp = self.write_stamp
            class_name, page_id, slot = self.directory.lookup(oid)
            body = self.heap_for(class_name).page(page_id).body(slot)
            if body is not None:
                state = self._state(body)
                if state.oid.value == oid.value:
                    break
            # Deleted or moved since the lookup: let the writer finish,
            # then look again (and raise if it deleted the object).
            retries += 1
            if retries == _FETCH_LOOKUPS:
                raise StorageError(
                    "object %r: its directory entry still names a slot that "
                    "does not hold it after %d lookups" % (oid, _FETCH_LOOKUPS)
                )
            time.sleep(_FETCH_BACKOFF * (retries - 1))
        if not body.startswith(_LONG_MAGIC):
            self._admit(state, stamp)
        return state

    def _admit(self, state: ObjectState, stamp: int) -> None:
        """Buffer ``state``, fetched under ``stamp``; on a first read, just mark it."""
        value, marked = state.oid.value, self._marked
        if value not in marked:
            if len(marked) >= OBJECT_BUFFER_STATES:
                marked.clear()
            marked.add(value)
            return
        self._keep(state, stamp)

    def _keep(self, state: ObjectState, stamp: int) -> None:
        """The bounded admission: buffer ``state``, read under ``stamp``,
        unless the stamp moved meanwhile, then evict the oldest past the bound."""
        value, objects = state.oid.value, self._objects
        objects[value] = state
        if self.write_stamp != stamp:
            objects.pop(value, None)  # a racing write or clear
        while len(objects) > OBJECT_BUFFER_STATES:  # a loop: admissions race
            try:
                objects.popitem(last=False)
            except KeyError:  # emptied meanwhile
                break

    def _wrote(self, oid: OID) -> None:
        """After a write changed ``oid``'s record: unmark it, move the stamp, *then* pop it."""
        self._marked.discard(oid.value)
        self.write_stamp = next(self._stamps)
        self._objects.pop(oid.value, None)

    def _forget_all(self) -> None:
        """``BufferPool.on_drop``: move the stamp, *then* empty the buffer."""
        self.write_stamp = next(self._stamps)
        self._objects.clear()
        self._marked.clear()

    def forget_states(self) -> None:
        """Drop every decoded state kept: each resident page's state list
        and the object buffer.  A schema change calls it (``Schema.on_change``):
        what they hold was coerced to a definition the change may have
        altered.  Each page's stamp moves, as the buffer's does, so a
        list or a state decoded while the change ran is never kept."""
        for page in self.buffer.frames():
            page.forget()
        self._forget_all()

    def contains(self, oid: OID) -> bool:
        return oid in self.directory

    def class_of(self, oid: OID) -> str:
        return self.directory.lookup(oid)[0]

    def overwrite(self, state: ObjectState) -> Tuple[bytes, bytes]:
        """Replace the stored state of an existing object; returns the
        encodings replaced and stored (the log's before- and after-image).

        Write-through: when the object was buffered or read once before
        the write, the state the write stored is admitted after the pop,
        as a miss would decode it (module docstring, "Object buffer")."""
        value = state.oid.value
        read = value in self._objects or value in self._marked
        class_name, page_id, slot = self.directory.lookup(state.oid)
        rid = (page_id, slot)
        heap = self.heap_for(class_name)
        body = heap.read(rid)
        replaced = self._image(body)
        self._free_chunks(body)
        data, record = self._encode_record(state)
        if class_name != state.class_name:
            # Class migration: remove from the old heap, insert into new.
            heap.delete(rid)
            new_rid = self.heap_for(state.class_name).insert(record)
        else:
            new_rid = heap.update(rid, record)
        if new_rid != rid:  # heaps share no pages: always so for a migration
            self.directory.move(state.oid, state.class_name, new_rid)
        self._wrote(state.oid)
        if read and record is data:  # never a long object's stub
            stamp = self.write_stamp
            stored = decoded_copy(state) or self._decode(data)
            self._keep(self.coerce(stored.class_name, stored), stamp)
        return replaced, data

    def remove(self, oid: OID) -> bytes:
        """Delete an object; returns the encoding it stored (the log's
        before-image)."""
        class_name, page_id, slot = self.directory.lookup(oid)
        heap = self.heap_for(class_name)
        body = heap.read((page_id, slot))
        replaced = self._image(body)
        self._free_chunks(body)
        self.directory.remove(oid)  # first: a dead slot's reader finds no entry
        heap.delete((page_id, slot))
        self._wrote(oid)
        return replaced

    def scan_pages(self, class_name: str) -> Iterator[Sequence[ObjectState]]:
        """All direct instances of one class, a sequence per heap page, in
        physical order; shared, read-only states like :meth:`load`'s, in
        a sequence that is itself shared and read-only (a tuple, once the
        page keeps it).  Each page is fetched (one ``get_page``) and read
        when reached."""
        if class_name == OVERFLOW_HEAP or class_name not in self._heaps:
            return
        for page_id in list(self._heaps[class_name].page_ids):
            stamp = self.write_stamp  # before the fetch, as a miss reads it
            page = self.buffer.get_page(page_id)
            yield page.states(functools.partial(self._build_page_states, stamp))

    def _build_page_states(self, stamp: int, page: SlottedPage) -> Tuple[list, bool]:
        """The states of ``page``, for its state list (page.py), and
        whether the page may keep them: not when it holds a long-object
        stub.  Each record is decoded and offered to the object buffer,
        never taken from it: a writer changes the page before it pops
        the OID, so the buffer may still hold the old state of a record
        the page already holds anew."""
        keep = True
        states = []
        for _slot, body in page.records():
            state = self._state(body)
            if body.startswith(_LONG_MAGIC):
                keep = False
            else:
                self._admit(state, stamp)
            states.append(state)
        return states, keep

    def scan_class(self, class_name: str) -> Iterator[ObjectState]:
        """:meth:`scan_pages`, a state at a time."""
        return (state for page in self.scan_pages(class_name) for state in page)

    def scan_stored(self, class_name: str) -> Iterator[ObjectState]:
        """All direct instances of one class as their records store them:
        not coerced, not buffered.  For the renames, which rewrite the
        names a record holds after the catalog has changed them."""
        if class_name == OVERFLOW_HEAP or class_name not in self._heaps:
            return
        for _rid, body in self._heaps[class_name].scan():
            yield self._decode(self._image(body))

    def oids_of_class(self, class_name: str) -> List[OID]:
        return self.directory.oids_of_class(class_name)

    def count_class(self, class_name: str) -> int:
        return self.directory.count_of_class(class_name)

    # -- lifecycle -----------------------------------------------------------------

    def flush(self) -> None:
        self.buffer.flush_all()
        self.save_metadata()

    def drop_cache(self) -> None:
        """Flush then empty the buffer pool, and with it the object
        buffer (cold-cache experiments)."""
        self.buffer.drop_all()

    def close(self) -> None:
        try:
            self.drop_cache()  # empty now: a dropped database is cyclic garbage
            self.save_metadata()
        finally:
            self.pager.close()
            self.directory.clear()

    def __enter__(self) -> "StorageManager":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<StorageManager %s: %d objects, %d heaps>" % (
            self.path or "memory",
            len(self.directory),
            len(self._heaps),
        )
