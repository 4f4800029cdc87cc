"""Heap placement, and extent scans that yield each object once.

* **Placement.**  A record that outgrows its page relocates into the
  tail page's room and grows the heap only when nothing fits; a hinted
  insert whose hint page is full still starts a fresh page for its
  cluster run (experiment E6).  An OO1 build leaves its heaps full.
* **Each OID once.**  Relocating onto the tail moves a record *ahead* of
  a scan that already read it.  A snapshot scan is suspended after its
  first page, a record of that page is moved onto the tail — by another
  transaction that commits, by the scanning transaction itself, by a
  writer that aborts — and the finished scan must still yield every
  object exactly once, with the image it had when the scan read it.
  The same through ``select_iter`` and ``instances()``.
"""

import threading

import pytest

from repro import AttributeDef, Database
from repro.bench.oo1 import OO1Data, OO1KimDB
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.pager import MemoryPager

PAD = "p" * 60  # twelve records fill 512-byte pages 5, 5 and 2
GROWN = "g" * 150  # no longer fits its first-page slot; fits the tail


# -- placement -----------------------------------------------------------------


@pytest.fixture
def heap():
    return HeapFile(BufferPool(MemoryPager(256), capacity=16), "test")


def _fill_first_page(heap):
    """Records that fill page 0, then one on a second (tail) page."""
    rids = [heap.insert(b"a" * 50) for _ in range(4)]
    tail = heap.insert(b"t" * 50)
    assert {page for page, _slot in rids} == {heap.page_ids[0]}
    assert tail[0] == heap.page_ids[1]
    return rids, tail


def test_a_relocated_record_takes_the_tail_pages_room(heap):
    rids, tail = _fill_first_page(heap)
    moved = heap.update(rids[0], b"m" * 100)
    assert moved[0] == tail[0]
    assert heap.page_count == 2
    assert heap.read(moved) == b"m" * 100


def test_a_relocation_grows_the_heap_only_when_the_tail_is_full(heap):
    rids, tail = _fill_first_page(heap)
    heap.update(rids[0], b"m" * 100)  # the tail now has too little room
    moved = heap.update(rids[1], b"n" * 180)
    assert heap.page_count == 3
    assert moved[0] == heap.page_ids[-1]
    assert heap.read(moved) == b"n" * 180


def test_a_hinted_insert_into_a_full_hint_page_grows_a_fresh_page(heap):
    rids, tail = _fill_first_page(heap)
    placed = heap.insert(b"c" * 30, near=rids[0])
    # The tail had room; the cluster run gets a page of its own instead.
    assert placed[0] not in (rids[0][0], tail[0])
    assert heap.page_count == 3


def test_an_oo1_build_leaves_every_heap_full():
    db = Database()
    OO1KimDB(db, OO1Data(300))
    storage = db.storage
    for name in storage.heap_names():
        heap = storage.heap_for(name)
        used = sum(
            storage.pager.page_size - heap.page(page_id).free_space for page_id in heap.page_ids
        )
        fill = used / (heap.page_count * storage.pager.page_size)
        assert fill >= 0.8, "%s: %d pages at %.0f%% fill" % (name, heap.page_count, 100 * fill)
    db.close()


# -- each OID once ---------------------------------------------------------------


@pytest.fixture
def db():
    db = Database(page_size=512)
    db.define_class("T", attributes=[AttributeDef("x", "Integer"), AttributeDef("pad", "String")])
    for i in range(12):
        db.new("T", {"x": i, "pad": PAD})
    heap = db.storage.heap_for("T")
    assert [heap.page(page_id).live_count for page_id in heap.page_ids] == [5, 5, 2]
    yield db
    db.close()


def _page_of(db, oid):
    return db.storage.directory.lookup(oid)[1]


def _assert_moved(db, oid, first_page):
    """``oid``'s record left ``first_page`` (for the tail, whose room it
    takes: the placement tests above pin where it goes)."""
    assert _page_of(db, oid) != first_page


def _check_rows(rows, images):
    """Each object of ``images`` once, with its image there."""
    assert sorted(state.oid for state in rows) == sorted(images)
    for state in rows:
        assert (state.values["x"], state.values["pad"]) == images[state.oid]


def _snapshot_images(db):
    return {
        state.oid: (state.values["x"], state.values["pad"])
        for state in db.storage.scan_class("T")
    }


def test_a_committed_move_ahead_of_the_scan_yields_its_object_once(db):
    images = _snapshot_images(db)
    view = db._snapshot_view()
    pages = view.scan_pages("T")
    rows = list(next(pages))
    first_page = _page_of(db, rows[0].oid)
    db.update(rows[0].oid, {"pad": GROWN})  # another transaction, committed
    _assert_moved(db, rows[0].oid, first_page)
    rows += [state for page in pages for state in page]
    db._read_close(view)
    _check_rows(rows, images)


def test_an_aborted_move_ahead_of_the_scan_yields_its_object_once(db):
    images = _snapshot_images(db)
    view = db._snapshot_view()
    pages = view.scan_pages("T")
    rows = list(next(pages))
    first_page = _page_of(db, rows[0].oid)
    txn = db.transaction()
    db.update(rows[0].oid, {"pad": GROWN})
    txn.abort()  # the restored record stays on the tail, its entry a tombstone
    _assert_moved(db, rows[0].oid, first_page)
    rows += [state for page in pages for state in page]
    db._read_close(view)
    _check_rows(rows, images)


def test_the_scanning_transactions_own_move_yields_its_object_once(db):
    images = _snapshot_images(db)
    with db.transaction() as txn:
        assert db._snapshot_view() is txn.view
        pages = txn.view.scan_pages("T")
        rows = list(next(pages))
        first_page = _page_of(db, rows[0].oid)
        db.update(rows[0].oid, {"pad": GROWN})
        _assert_moved(db, rows[0].oid, first_page)
        rows += [state for page in pages for state in page]
    # Each object once, as the scan read it: the mover before its write.
    _check_rows(rows, images)


def test_the_scanning_transactions_own_move_onto_a_grown_page_is_not_lost(db):
    """The tail record outgrows the tail: it lands on a page grown after
    the scan began, which the storage scan never reads."""
    images = _snapshot_images(db)
    heap = db.storage.heap_for("T")
    last = db.storage.scan_pages("T")
    *_, tail_states = last
    mover = tail_states[-1].oid
    with db.transaction() as txn:
        assert db._snapshot_view() is txn.view
        pages = txn.view.scan_pages("T")
        rows = list(next(pages))
        db.update(mover, {"pad": "z" * 400})
        assert heap.page_count == 4 and _page_of(db, mover) == heap.page_ids[-1]
        rows += [state for page in pages for state in page]
    images[mover] = (images[mover][0], "z" * 400)  # read your own writes
    _check_rows(rows, images)


def _move_after_first_page(db, monkeypatch):
    """Make the next extent scan pause after the storage scan hands out
    its first page, while a committed update moves that page's first
    record ahead: a query's sort drains the scan before it returns a
    row, so the move cannot be made from between two rows.  Returns the
    moved OIDs."""
    real, moved = db.storage.scan_pages, []

    def scan_pages(class_name):
        pages = real(class_name)
        states = next(pages)
        yield states
        if not moved:
            moved.append(states[0].oid)
            first_page = _page_of(db, states[0].oid)
            db.update(states[0].oid, {"pad": GROWN})
            _assert_moved(db, states[0].oid, first_page)
        yield from pages

    monkeypatch.setattr(db.storage, "scan_pages", scan_pages)
    return moved


def test_select_iter_yields_each_object_once_past_a_committed_move(db, monkeypatch):
    oids = list(_snapshot_images(db))
    moved = _move_after_first_page(db, monkeypatch)
    with db.select_iter("SELECT t FROM T t") as stream:
        seen = [handle.oid for handle in stream]
    assert len(moved) == 1
    assert sorted(seen) == sorted(oids)


def test_execute_yields_each_object_once_past_a_committed_move(db, monkeypatch):
    images = _snapshot_images(db)
    moved = _move_after_first_page(db, monkeypatch)
    result = db.execute("SELECT t.x, t.pad FROM T t")
    assert len(moved) == 1
    assert sorted(result.oids) == sorted(images)
    assert sorted((row["x"], row["pad"]) for row in result.rows) == sorted(images.values())


def test_instances_in_a_transaction_yields_each_object_once_past_a_committed_move(db):
    oids = list(_snapshot_images(db))
    with db.transaction():
        handles = db.instances("T")
        seen = [next(handles).oid]
        first_page = _page_of(db, seen[0])
        writer = threading.Thread(target=db.update, args=(seen[0], {"pad": GROWN}))
        writer.start()
        writer.join(30)
        assert not writer.is_alive()
        _assert_moved(db, seen[0], first_page)
        seen += [handle.oid for handle in handles]
    assert sorted(seen) == sorted(oids)


def test_instances_outside_a_transaction_yields_each_object_once_past_its_own_updates(db):
    oids = list(_snapshot_images(db))
    seen = []
    for handle in db.instances("T"):
        seen.append(handle.oid)
        if len(seen) == 1:
            first_page = _page_of(db, handle.oid)
            db.update(handle.oid, {"pad": GROWN})
            _assert_moved(db, handle.oid, first_page)
    assert sorted(seen) == sorted(oids)
