"""Pagers, buffer pool, heap files, serializer, storage manager."""

import threading

import pytest

from repro import AttributeDef, Database
from repro.authz import attach
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.errors import AuthorizationError, ObjectNotFoundError, StorageError
from repro.storage import manager as manager_module
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.manager import StorageManager
from repro.storage.pager import FilePager, MemoryPager, open_pager
from repro.storage.serializer import decode_object, encode_object
from repro.workspace.cache import ObjectWorkspace


class TestPagers:
    def test_memory_alloc_and_rw(self):
        pager = MemoryPager(page_size=256)
        pid = pager.allocate()
        pager.write_page(pid, b"a" * 256)
        assert pager.read_page(pid) == b"a" * 256

    def test_memory_wrong_size_write(self):
        pager = MemoryPager(256)
        pid = pager.allocate()
        with pytest.raises(StorageError):
            pager.write_page(pid, b"short")

    def test_memory_unknown_page(self):
        with pytest.raises(StorageError):
            MemoryPager(256).read_page(0)

    def test_stats_counted(self):
        pager = MemoryPager(256)
        pid = pager.allocate()
        pager.write_page(pid, bytes(256))
        pager.read_page(pid)
        assert pager.metrics.snapshot("pager.") == {
            "pager.allocations": 1, "pager.reads": 1, "pager.writes": 1,
        }

    def test_file_pager_persists(self, tmp_path):
        path = str(tmp_path / "pages.db")
        pager = FilePager(path, page_size=256)
        pid = pager.allocate()
        pager.write_page(pid, b"z" * 256)
        pager.sync()
        pager.close()
        reopened = FilePager(path, page_size=256)
        assert reopened.page_count == 1
        assert reopened.read_page(pid) == b"z" * 256
        reopened.close()

    def test_file_pager_geometry_mismatch(self, tmp_path):
        path = str(tmp_path / "pages.db")
        FilePager(path, page_size=256).close()
        with pytest.raises(StorageError):
            FilePager(path, page_size=512)

    def test_file_pager_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_a_db"
        path.write_bytes(b"x" * 64)
        with pytest.raises(StorageError):
            FilePager(str(path), page_size=256)

    def test_open_pager_factory(self, tmp_path):
        assert isinstance(open_pager(None), MemoryPager)
        pager = open_pager(str(tmp_path / "f.db"))
        assert isinstance(pager, FilePager)
        pager.close()

    def test_tiny_page_size_rejected(self):
        with pytest.raises(StorageError):
            MemoryPager(16)


class TestBufferPool:
    def test_hit_after_fault(self):
        pool = BufferPool(MemoryPager(256), capacity=4)
        pid = pool.new_page()
        pool.flush_all()
        pool.drop_all()
        pool.get_page(pid)
        pool.get_page(pid)
        assert pool.metrics.value("buffer.faults") == 1
        assert pool.metrics.value("buffer.hits") == 1

    def test_eviction_writes_dirty_pages(self):
        pool = BufferPool(MemoryPager(256), capacity=2)
        pids = []
        for position in range(3):
            pid = pool.new_page()
            page = pool.get_page(pid)
            page.insert(b"rec%d" % position)
            pool.mark_dirty(pid)
            pids.append(pid)
        # Capacity 2 < 3 pages: at least one eviction flushed its data.
        assert pool.metrics.value("buffer.evictions") >= 1
        pool.flush_all()
        pool.drop_all()
        for position, pid in enumerate(pids):
            assert pool.get_page(pid).read(0) == b"rec%d" % position

    def test_lru_order(self):
        pool = BufferPool(MemoryPager(256), capacity=2)
        a = pool.new_page()
        b = pool.new_page()
        pool.get_page(a)  # a becomes most-recent
        pool.new_page()  # evicts b
        assert a in list(pool.resident_pages())
        assert b not in list(pool.resident_pages())

    def test_mark_dirty_nonresident_fails(self):
        pool = BufferPool(MemoryPager(256), capacity=2)
        with pytest.raises(StorageError):
            pool.mark_dirty(99)

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(MemoryPager(256), capacity=0)

    def test_drop_all_forces_cold_cache(self):
        pool = BufferPool(MemoryPager(256), capacity=8)
        pid = pool.new_page()
        pool.drop_all()
        pool.metrics.reset("buffer.")
        pool.get_page(pid)
        assert pool.metrics.value("buffer.faults") == 1


class TestHeapFile:
    @pytest.fixture
    def heap(self):
        return HeapFile(BufferPool(MemoryPager(256), capacity=16), "test")

    def test_insert_read(self, heap):
        rid = heap.insert(b"record")
        assert heap.read(rid) == b"record"

    def test_spills_to_new_pages(self, heap):
        rids = [heap.insert(b"x" * 100) for _ in range(10)]
        assert heap.page_count > 1
        assert len({page_id for page_id, _slot in rids}) == heap.page_count

    def test_update_in_place_keeps_rid(self, heap):
        rid = heap.insert(b"abc")
        assert heap.update(rid, b"abd") == rid

    def test_update_relocates_when_full(self, heap):
        rid = heap.insert(b"a" * 100)
        heap.insert(b"b" * 100)
        new_rid = heap.update(rid, b"c" * 200)
        assert heap.read(new_rid) == b"c" * 200

    def test_delete(self, heap):
        rid = heap.insert(b"gone")
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.read(rid)

    def test_scan_in_page_order(self, heap):
        payloads = [b"r%03d" % position for position in range(20)]
        for payload in payloads:
            heap.insert(payload)
        assert [body for _rid, body in heap.scan()] == payloads

    def test_insert_near_collocates(self, heap):
        anchor = heap.insert(b"anchor")
        for _ in range(3):
            heap.insert(b"x" * 120)  # push tail to later pages
        near = heap.insert(b"friend", near=anchor)
        assert near[0] == anchor[0]

    def test_foreign_rid_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.read((999, 0))


class TestSerializer:
    def test_roundtrip_all_types(self):
        state = ObjectState(
            OID(42, "Vehicle"),
            "Vehicle",
            {
                "i": 12345,
                "neg": -99,
                "big": 2 ** 60,
                "f": 3.25,
                "s": "détroit",
                "b": b"\x00\xff",
                "t": True,
                "fa": False,
                "n": None,
                "ref": OID(7),
                "xs": [1, "two", OID(3), [4, 5]],
            },
        )
        decoded = decode_object(encode_object(state))
        assert decoded.oid == state.oid
        assert decoded.class_name == "Vehicle"
        assert decoded.values == state.values

    def test_empty_values(self):
        state = ObjectState(OID(1), "A", {})
        assert decode_object(encode_object(state)).values == {}

    def test_corrupt_record_raises(self):
        with pytest.raises(StorageError):
            decode_object(b"\x00\x01garbage")

    def test_bool_not_confused_with_int(self):
        state = ObjectState(OID(1), "A", {"x": True, "y": 1})
        decoded = decode_object(encode_object(state))
        assert decoded.values["x"] is True
        assert decoded.values["y"] == 1 and decoded.values["y"] is not True

    def test_unstorable_value_rejected(self):
        state = ObjectState(OID(1), "A", {"x": object()})
        with pytest.raises(StorageError):
            encode_object(state)


class TestStorageManager:
    def test_save_metadata_replaces_extra_and_a_bare_save_keeps_it(self, tmp_path):
        path = str(tmp_path / "meta.kim")
        storage = StorageManager(path)
        storage.save_metadata({"schema": 1, "retired": 2})
        storage.save_metadata({"schema": 3})
        storage.save_metadata()
        assert storage.load_extra_metadata() == {"schema": 3}
        storage.close()

    def test_store_load(self):
        storage = StorageManager()
        state = ObjectState(OID(1), "A", {"x": 1})
        storage.store_new(state)
        assert storage.load(OID(1)).values == {"x": 1}

    def test_duplicate_store_rejected(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {}))
        with pytest.raises(StorageError):
            storage.store_new(ObjectState(OID(1), "A", {}))

    def test_overwrite(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {"x": 1}))
        storage.overwrite(ObjectState(OID(1), "A", {"x": 2}))
        assert storage.load(OID(1)).values["x"] == 2

    def test_remove_returns_final_state(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {"x": 1}))
        removed = decode_object(storage.remove(OID(1)))  # the record it stored
        assert removed.values == {"x": 1}
        assert not storage.contains(OID(1))
        with pytest.raises(ObjectNotFoundError):
            storage.load(OID(1))

    def test_scan_class_only_direct_instances(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {}))
        storage.store_new(ObjectState(OID(2), "B", {}))
        assert [s.oid for s in storage.scan_class("A")] == [OID(1)]

    def test_class_migration_on_overwrite(self):
        storage = StorageManager()
        storage.store_new(ObjectState(OID(1), "A", {"x": 1}))
        storage.overwrite(ObjectState(OID(1), "B", {"x": 1}))
        assert storage.class_of(OID(1)) == "B"
        assert storage.oids_of_class("A") == []
        assert storage.oids_of_class("B") == [OID(1)]

    def test_count_class_agrees_with_extent_after_insert_delete_reclass(self):
        storage = StorageManager()
        for value in range(1, 6):
            storage.store_new(ObjectState(OID(value), "A", {}))
        storage.remove(OID(2))
        storage.overwrite(ObjectState(OID(3), "B", {}))  # reclass A -> B
        assert [storage.count_class(c) for c in ("A", "B", "C")] == [
            len(storage.oids_of_class(c)) for c in ("A", "B", "C")
        ] == [3, 1, 0]

    def test_durable_roundtrip(self, tmp_path):
        path = str(tmp_path / "store.db")
        storage = StorageManager(path)
        for value in range(50):
            storage.store_new(ObjectState(OID(value + 1), "A", {"x": value}))
        storage.close()
        reopened = StorageManager(path)
        assert len(reopened.directory) == 50
        assert reopened.load(OID(50)).values["x"] == 49
        assert reopened.directory.max_oid_value() == 50
        reopened.close()

    def test_grown_record_relocation_tracked(self):
        storage = StorageManager(page_size=256)
        storage.store_new(ObjectState(OID(1), "A", {"s": "x"}))
        storage.store_new(ObjectState(OID(2), "A", {"s": "y" * 60}))
        storage.overwrite(ObjectState(OID(1), "A", {"s": "z" * 150}))
        assert storage.load(OID(1)).values["s"] == "z" * 150


class TestDecodedStateMemo:
    """The object buffer, the storage manager's memo of decoded stored
    states by OID: up to its bound, an unwritten object decodes on its
    first two reads (the second admits it), then never, whether or not
    its page stays in the pool.  An update of an object read before
    admits the state it stored, as a fresh decode returns it."""

    @staticmethod
    def _storage(n=40, **kwargs):
        storage = StorageManager(**kwargs)
        for i in range(1, n + 1):
            storage.store_new(ObjectState(OID(i), "A", {"x": i, "tags": ["t"]}))
        return storage

    @staticmethod
    def _decodes(storage):
        return storage.metrics.value("storage.decodes")

    @staticmethod
    def _buffered(storage):
        """OIDs the object buffer holds a state for (markers live in
        ``_marked``, not here)."""
        return {OID(value) for value in storage._objects}

    @staticmethod
    def _fresh(storage, oid):
        """A fresh decode of ``oid``'s current record (not counted)."""
        class_name, page_id, slot = storage.directory.lookup(oid)
        return decode_object(storage.heap_for(class_name).read((page_id, slot)))

    def _scan_decodes(self, storage):
        before = self._decodes(storage)
        list(storage.scan_class("A"))
        return self._decodes(storage) - before

    def _load_decodes(self, storage, oids):
        before = self._decodes(storage)
        for oid in oids:
            assert storage.load(oid).oid == oid
        return self._decodes(storage) - before

    def test_third_scan_of_an_unchanged_extent_decodes_nothing(self):
        storage = self._storage()
        assert [self._scan_decodes(storage) for _ in range(3)] == [40, 40, 0]

    def test_memo_hits_fetch_no_page_and_decode_nothing(self):
        storage = self._storage()
        assert self._load_decodes(storage, [OID(7)] * 2) == 2  # the second read admits
        names = ("buffer.hits", "buffer.faults", "storage.decodes")
        for _ in range(3):
            before = [storage.metrics.value(name) for name in names]
            assert storage.load(OID(7)).values["x"] == 7
            assert [storage.metrics.value(name) for name in names] == before
        assert storage.load(OID(7)) is storage.load(OID(7))

    def test_a_read_once_sweep_keeps_no_state(self):
        storage = self._storage()
        oids = [OID(i) for i in range(1, 41)]
        assert self._load_decodes(storage, oids) == 40
        assert self._buffered(storage) == set()
        assert [self._load_decodes(storage, oids) for _ in range(2)] == [40, 0]
        assert self._buffered(storage) == set(oids)

    def test_an_update_re_decodes_only_its_own_page(self):
        storage = self._storage(page_size=512)
        pages = {i: storage.directory.lookup(OID(i))[1] for i in range(1, 41)}
        assert len(set(pages.values())) > 2
        for _ in range(2):
            self._scan_decodes(storage)
        storage.overwrite(ObjectState(OID(1), "A", {"x": -1, "tags": ["t"]}))
        # The page's list is rebuilt by decoding its records (a build never
        # takes a state from the object buffer); every other page's kept
        # list decodes nothing.
        on_page = list(pages.values()).count(pages[1])
        assert [self._scan_decodes(storage) for _ in range(3)] == [on_page, on_page, 0]
        assert storage.load(OID(1)).values["x"] == -1

    @pytest.mark.parametrize("write", ["update", "grow", "reclass", "remove"])
    def test_a_write_drops_only_its_own_entry(self, write):
        """A write pops its own entry and changes no other.  A remove
        leaves it out; an update, relocating or reclassing, puts back
        the state it stored: exactly what a fresh decode returns, with
        the OID's hint and no list shared with the written state."""
        storage = self._storage(page_size=512)
        oids = [OID(i) for i in range(1, 41)]
        self._load_decodes(storage, oids * 2)
        others = {value: state for value, state in storage._objects.items() if value != 2}
        if write == "remove":
            storage.remove(OID(2))
            with pytest.raises(ObjectNotFoundError):
                storage.load(OID(2))
            assert self._buffered(storage) == set(oids) - {OID(2)}
        else:
            values = {"x": 20, "tags": ["t" * (300 if write == "grow" else 1)]}
            state = ObjectState(OID(2), "B" if write == "reclass" else "A", values)
            entry = storage.directory.lookup(OID(2))
            storage.overwrite(state)
            assert (storage.directory.lookup(OID(2)) == entry) is (write == "update")
            kept = storage._objects[2]
            assert repr(kept) == repr(self._fresh(storage, OID(2)))
            assert kept.values["tags"] is not values["tags"]
            assert self._load_decodes(storage, [OID(2)]) == 0
            assert storage.load(OID(2)) == state
            assert self._buffered(storage) == set(oids)
        assert all(storage._objects[value] is state for value, state in others.items())

    def test_a_stale_entry_stored_after_an_update_is_never_returned(self, monkeypatch):
        """A reader decodes the old body; the writer changes the record
        and pops; a second reader leaves a marker; only then does the
        first reader admit the old state.  The moved stamp drops it."""
        storage = self._storage(n=3)
        storage.load(OID(2))  # the marker: the next read admits
        decoded, resume = threading.Event(), threading.Event()

        def decode(data):
            state = decode_object(data)
            if threading.current_thread() is reader:
                decoded.set()
                assert resume.wait(10)
            return state

        monkeypatch.setattr(manager_module, "decode_object", decode)
        reader = threading.Thread(target=storage.load, args=(OID(2),))

        class WriterPop(dict):
            def pop(self, *args):
                popped = super().pop(*args)
                if threading.current_thread() is not reader and reader.is_alive():
                    storage.load(OID(2))  # a second reader: the new body's marker
                    resume.set()
                    reader.join(10)
                return popped

        storage._objects = WriterPop(storage._objects)
        reader.start()
        assert decoded.wait(10)
        storage.overwrite(ObjectState(OID(2), "A", {"x": 20, "tags": []}))
        reader.join(10)
        assert not reader.is_alive()
        for _ in range(3):
            assert storage.load(OID(2)).values == {"x": 20, "tags": []}

    def test_a_frame_dropped_during_a_read_keeps_no_entry(self):
        storage = self._storage(n=3)
        storage.load(OID(2))  # the marker: the next read admits
        page_id = storage.directory.lookup(OID(2))[1]

        class DroppedFirst(dict):
            def __setitem__(self, value, state):
                storage.buffer.invalidate(page_id)  # the pool gives the frame up mid-admission
                super().__setitem__(value, state)

        storage._objects = DroppedFirst()
        assert storage.load(OID(2)).values["x"] == 2
        assert OID(2).value not in storage._objects

    @staticmethod
    def _cycle_out(storage, oid):
        """Fetch every other page of ``oid``'s heap, so a two-frame pool
        gives up ``oid``'s frame; decodes nothing."""
        home = storage.directory.lookup(oid)[1]
        for page_id in storage.heap_for("A").page_ids:
            if page_id != home:
                storage.buffer.get_page(page_id)
        assert home not in storage.buffer

    def test_eviction_keeps_the_buffer(self):
        """A frame's eviction pops neither a buffered state nor a first
        read's marker: an OID read twice, its frame cycled out between the
        reads and again after, loads decoding nothing and fetching no page."""
        storage = self._storage(page_size=512, buffer_capacity=2)
        assert self._load_decodes(storage, [OID(1)]) == 1  # the first read marks
        self._cycle_out(storage, OID(1))
        assert self._load_decodes(storage, [OID(1)]) == 1  # the second admits
        self._cycle_out(storage, OID(1))
        names = ("buffer.hits", "buffer.faults", "pager.reads", "storage.decodes")
        before = [storage.metrics.value(name) for name in names]
        assert storage.load(OID(1)).values["x"] == 1
        assert [storage.metrics.value(name) for name in names] == before

    def test_a_write_after_its_frame_was_evicted_pops_its_state(self):
        """The write pops the old state and admits the one it stored,
        which then outlives the frame as a read's state does."""
        storage = self._storage(page_size=512, buffer_capacity=2)
        self._load_decodes(storage, [OID(1)] * 2)
        self._cycle_out(storage, OID(1))
        old = storage._objects[OID(1).value]
        storage.overwrite(ObjectState(OID(1), "A", {"x": -1, "tags": ["t"]}))
        kept = storage._objects[OID(1).value]
        assert kept is not old
        assert repr(kept) == repr(self._fresh(storage, OID(1)))
        self._cycle_out(storage, OID(1))
        assert self._load_decodes(storage, [OID(1)]) == 0
        assert storage.load(OID(1)).values["x"] == -1

    def test_the_buffer_keeps_at_most_its_bound_oldest_out_first(self, monkeypatch):
        """The bound caps states and first-read markers alike; the gauge
        reads the buffer's length."""
        monkeypatch.setattr(manager_module, "OBJECT_BUFFER_STATES", 4)
        storage = self._storage(n=6)
        for value in range(1, 7):
            self._load_decodes(storage, [OID(value)] * 2)
            assert len(storage._marked) <= 4
        assert list(storage._objects) == [3, 4, 5, 6]
        assert storage.metrics.value("storage.object_buffer_states") == 4

    def _dropped(self, drop):
        """Buffer two objects, cycle their frame out, let ``drop(storage)``
        drop frames unevicted, and check the buffer and its markers are
        empty, the stamp moved and reads decode again."""
        storage = self._storage(page_size=512, buffer_capacity=2)
        self._load_decodes(storage, [OID(1), OID(2)] * 2)
        self._cycle_out(storage, OID(1))
        stamp = storage.write_stamp
        drop(storage)
        assert storage._objects == {} and storage._marked == set()
        assert storage.write_stamp != stamp
        assert self._load_decodes(storage, [OID(1)]) == 1
        assert storage.load(OID(1)).values["x"] == 1

    def test_invalidate_drops_the_memo(self):
        # Recovery re-imaging a page underneath the pool.
        self._dropped(lambda s: s.buffer.invalidate(s.directory.lookup(OID(1))[1]))

    def test_drop_cache_drops_the_memo(self):
        self._dropped(lambda s: s.drop_cache())

    def test_torn_page_repair_empties_the_buffer_and_moves_the_stamp(self, tmp_path):
        storage = self._storage(path=str(tmp_path / "torn.pages"))
        self._load_decodes(storage, [OID(1), OID(2)] * 2)
        storage.flush()
        page_id = storage.directory.lookup(OID(1))[1]
        image = storage.pager.read_page(page_id)
        storage.pager.write_page(page_id, b"\x01" * len(image))
        stamp = storage.write_stamp
        assert storage.repair_pages({page_id: image}) == 1
        assert storage._objects == {} and storage._marked == set()
        assert storage.write_stamp != stamp
        assert self._load_decodes(storage, [OID(1)]) == 1
        storage.close()

    def test_long_records_are_never_memoized(self):
        storage = StorageManager(page_size=512)
        storage.store_new(ObjectState(OID(1), "A", {"blob": b"x" * 2000}))
        before = self._decodes(storage)
        for _ in range(3):
            assert storage.load(OID(1)).values["blob"] == b"x" * 2000
        assert self._decodes(storage) == before + 3
        assert storage._objects == {}


class TestReadRacingAMove:
    """A read whose directory lookup a write overtakes — the slot is
    tombstoned or holds another object by the time it is read — looks
    the OID up again instead of failing or returning another object."""

    @staticmethod
    def _racing(monkeypatch, write):
        """Run ``write`` once, between the next lookup and its slot read."""
        real_page = HeapFile.page
        pending = [write]

        def page(heap, rid):
            if pending:
                pending.pop()()
            return real_page(heap, rid)

        monkeypatch.setattr(HeapFile, "page", page)

    @staticmethod
    def _db():
        db = Database()
        db.define_class("T", attributes=[AttributeDef("x", "Integer")])
        return db, db.new("T", {"x": 1}).oid

    def test_a_snapshot_read_racing_a_delete_sees_its_image(self, monkeypatch):
        db, oid = self._db()
        view = db._snapshot_view()
        self._racing(monkeypatch, lambda: db.delete(oid))
        assert view.deref(oid).values == {"x": 1}
        db._read_close(view)
        assert not db.exists(oid)

    def test_a_read_racing_a_delete_and_insert_finds_no_object(self, monkeypatch):
        db, oid = self._db()

        def write():
            db.delete(oid)
            db.new("T", {"x": 99})  # reuses the tombstoned slot

        self._racing(monkeypatch, write)
        with pytest.raises(ObjectNotFoundError):
            db.get_state(oid)
        assert db.storage._objects.get(oid.value) is None


    def test_a_directory_entry_that_stays_wrong_raises_instead_of_spinning(self):
        """An entry naming another object's slot never settles: the read
        gives up after a bounded number of lookups, naming the OID."""
        storage = StorageManager()
        for value in (1, 2):
            storage.store_new(ObjectState(OID(value), "A", {"x": value}))
        _class, page_id, slot = storage.directory.lookup(OID(2))
        storage.directory.move(OID(1), "A", (page_id, slot))
        raised = []

        def load():
            try:
                storage.load(OID(1))
            except StorageError as exc:
                raised.append(exc)

        reader = threading.Thread(target=load, daemon=True)
        reader.start()
        reader.join(timeout=10.0)
        assert not reader.is_alive(), "load(OID 1) is still looking up its entry"
        assert len(raised) == 1 and repr(OID(1)) in str(raised[0])
        assert storage.load(OID(2)).values == {"x": 2}


class TestPageStateList:
    """A scan gets each page's states as one sequence, kept by the page
    as a shared tuple from the second scan of it on and rebuilt after any
    write to it (page.py)."""

    @staticmethod
    def _scan(storage):
        return list(storage.scan_pages("A"))

    @staticmethod
    def _values(storage):
        return {state.oid.value: state.values["x"] for state in storage.scan_class("A")}

    def test_third_scan_hands_back_the_kept_tuples(self):
        storage = TestDecodedStateMemo._storage(page_size=512)
        first, second = self._scan(storage), self._scan(storage)
        assert len(first) > 2 and not any(isinstance(page, tuple) for page in first)
        assert all(isinstance(page, tuple) for page in second)
        hits = storage.metrics.value("buffer.hits")
        third = self._scan(storage)
        assert all(kept is again for kept, again in zip(second, third))
        assert storage.metrics.value("buffer.hits") - hits == len(third)
        assert storage.metrics.value("storage.decodes") == 80  # the first two scans

    @pytest.mark.parametrize("write", ["insert", "update", "delete"])
    def test_a_write_rebuilds_its_page_list(self, write):
        storage = TestDecodedStateMemo._storage(page_size=512)
        expected = self._values(storage)
        for _ in range(2):
            assert self._values(storage) == expected  # kept from here on
        last = max(expected)  # on the tail page, where an insert lands
        if write == "insert":
            storage.store_new(ObjectState(OID(99), "A", {"x": 99, "tags": []}))
            expected[99] = 99
        elif write == "update":
            storage.overwrite(ObjectState(OID(last), "A", {"x": -1, "tags": ["t"]}))
            expected[last] = -1
        else:
            storage.remove(OID(last))
            del expected[last]
        for _ in range(3):
            assert self._values(storage) == expected

    def test_a_list_built_across_a_write_is_never_handed_back(self):
        storage = TestDecodedStateMemo._storage(n=3)
        self._scan(storage)  # the first scan marks the page
        page_id = storage.directory.lookup(OID(2))[1]
        page = storage.buffer.get_page(page_id)

        def racing(page):
            built = storage._build_page_states(page_id, page)
            # A writer lands after the reader read the slots.
            storage.overwrite(ObjectState(OID(2), "A", {"x": 20, "tags": []}))
            return built

        assert [state.values["x"] for state in page.states(racing)] == [1, 2, 3]
        for _ in range(3):
            assert self._values(storage) == {1: 1, 2: 20, 3: 3}

    def test_a_scan_between_a_write_and_its_pop_keeps_no_stale_state(self, monkeypatch):
        """A writer changes the page first and pops the OID from the object
        buffer after: scans in between see the new record while the
        buffer still holds the old state, and the list the page keeps
        must hold the new one."""
        db = Database()
        db.define_class("Account", attributes=[AttributeDef("balance", "Integer")])
        oid = db.new("Account", {"balance": 100}).oid
        query = "SELECT a.balance FROM Account a"
        for _ in range(2):
            assert db.get_state(oid).values["balance"] == 100  # now buffered
        real_wrote = StorageManager._wrote

        def wrote(storage, written):
            for _ in range(2):  # the second scan keeps the page's list
                list(storage.scan_class("Account"))
            real_wrote(storage, written)

        monkeypatch.setattr(StorageManager, "_wrote", wrote)
        db.update(oid, {"balance": 7})
        monkeypatch.undo()
        for _ in range(3):
            assert db.get_state(oid).values["balance"] == 7
            assert [row["balance"] for row in db.execute(query).rows] == [7]

    def test_a_page_holding_a_stub_keeps_no_list(self):
        storage = StorageManager(page_size=512)
        storage.store_new(ObjectState(OID(1), "A", {"blob": b"x" * 2000}))
        storage.store_new(ObjectState(OID(2), "A", {"blob": b"y"}))
        for _ in range(3):
            (page,) = self._scan(storage)
            assert not isinstance(page, tuple)
            assert [state.values["blob"] for state in page] == [b"x" * 2000, b"y"]


def _doc_db():
    db = Database()
    db.define_class(
        "Doc",
        attributes=[
            AttributeDef("title", "String"),
            AttributeDef("tags", "String", multi=True),
            AttributeDef("grid"),
        ],
    )
    oid = db.new("Doc", {"title": "orig", "tags": ["a"], "grid": [["g"], ["h"]]}).oid
    for _ in range(2):  # the second scan keeps the page's state list
        db.execute("SELECT d FROM Doc d")
    return db, oid


_STORED = {"title": "orig", "tags": ["a"], "grid": [["g"], ["h"]]}


def _edit(state_values):
    state_values["title"] = "edited"
    state_values["tags"].append("x")
    state_values["grid"][0].append("x")


def _assert_stored(db, oid):
    """A later read, query and update + abort all see the stored value."""
    handle = db.get(oid)
    assert [handle["title"], handle["tags"], handle["grid"]] == list(_STORED.values())
    assert db.execute("SELECT d FROM Doc d WHERE d.title = 'orig'").oids == [oid]
    assert db.execute("SELECT d FROM Doc d WHERE d.title = 'edited'").oids == []
    txn = db.transaction()
    db.update(oid, {"title": "during"})
    txn.abort()
    assert db.get_state(oid).values == _STORED


class TestSharedStatesAreReadOnly:
    """Stored states are shared by the object buffer and the page state
    lists, so every state or list value that leaves the engine is a copy
    the caller owns."""

    def test_list_values_through_a_handle(self):
        db, oid = _doc_db()
        handle = db.get(oid)
        handle["tags"].append("x")
        handle.get("grid")[0].append("x")
        _assert_stored(db, oid)

    def test_get_state(self):
        db, oid = _doc_db()
        _edit(db.get_state(oid).values)
        _assert_stored(db, oid)

    def test_read_state_inside_a_transaction(self):
        db, oid = _doc_db()
        with db.transaction():
            _edit(db.read_state(oid).values)
        _assert_stored(db, oid)

    def test_result_set_states(self):
        db, oid = _doc_db()
        _edit(db.execute("SELECT d FROM Doc d").states[0].values)
        _assert_stored(db, oid)

    def test_stream_next_state(self):
        db, oid = _doc_db()
        with db.select_iter("SELECT d FROM Doc d") as stream:
            _edit(stream.next_state().values)
        _assert_stored(db, oid)

    def test_projected_list_values(self):
        db, oid = _doc_db()
        (row,) = db.execute("SELECT d.tags, d.grid FROM Doc d").rows
        row["grid"][0].append("x")
        row["grid"].append("x")
        _assert_stored(db, oid)

    # A memory object shares the stored state and copies it on first
    # write (a set, a read of its values, a list read through it); these
    # pin that copy and the checks the read keeps.

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_workspace_edits(self, policy):
        db, oid = _doc_db()
        db.storage.load(oid)  # the second read admits
        memoized = db.storage.load(oid)
        assert db.storage.load(oid) is memoized  # the object buffer's own state
        memory_object = ObjectWorkspace(db, policy=policy).load(oid)
        memory_object["tags"].append("x")
        memory_object["grid"][0].append("x")
        memory_object["grid"].append(["y"])
        memory_object.set("title", "edited")
        memory_object.values["extra"] = 1
        assert db.storage.load(oid) is memoized
        assert memoized.values == _STORED
        _assert_stored(db, oid)

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_workspace_load_is_authorized(self, policy):
        db, oid = _doc_db()
        manager = attach(db)
        manager.add_role("clerk")
        manager.set_subject("clerk")
        assert manager.reader()(oid, "Doc") is False
        workspace = ObjectWorkspace(db, policy=policy)
        with pytest.raises(AuthorizationError):
            workspace.load(oid)
        assert oid not in workspace

    @pytest.mark.parametrize("policy", ["lazy", "eager", "none"])
    def test_workspace_load_takes_its_s_lock(self, policy):
        db, oid = _doc_db()
        with db.transaction() as txn:
            ObjectWorkspace(db, policy=policy).load(oid)
            held = {
                (row["resource"], row["mode"])
                for row in db.select("SysLock")
                if row["txn"] == txn.txn_id
            }
        assert ("object:%s" % (oid,), "S") in held
