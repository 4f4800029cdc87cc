"""Per-write and per-span bookkeeping is plain data, never cyclic garbage.

A transaction's write log holds ``(before, after)`` pairs, not closures
over the transaction, and a span links only to its children.  So a
finished transaction and a span the tracer's ring drops are freed by
reference counting.  ``gc.DEBUG_SAVEALL`` keeps everything the cyclic
collector finds unreachable in ``gc.garbage``, where these tests look.
An abort replays the pairs newest-first through the one write path.
"""

import gc

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.obs.tracing import Span, Tracer
from repro.storage import SlottedPage
from repro.txn.transaction import Transaction


@pytest.fixture
def cyclic_garbage():
    """A function that collects and returns what was cyclic garbage
    since the fixture started."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def collect():
        gc.collect()
        return list(gc.garbage)

    try:
        yield collect
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _db():
    db = Database()
    for name in "TU":
        db.define_class(name, attributes=[AttributeDef("x", "Integer")])
    return db


def _instances(objects, cls):
    return [obj for obj in objects if isinstance(obj, cls)]


def test_finished_transactions_leave_no_cyclic_garbage(cyclic_garbage):
    db = _db()
    oid = db.new("T", {"x": 1}).oid
    with db.transaction():
        db.update(oid, {"x": 2})
        db.new("T", {"x": 3})
    txn = db.transaction()
    db.update(oid, {"x": 4})
    txn.abort()
    del txn
    assert db.get_state(oid).values == {"x": 2}
    assert _instances(cyclic_garbage(), Transaction) == []


def test_spans_the_ring_drops_leave_no_cyclic_garbage(cyclic_garbage):
    tracer = Tracer(capacity=8)
    for _ in range(3 * tracer.capacity):
        with tracer.trace("t"), tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with pytest.raises(ValueError), tracer.span("failing"):
                raise ValueError("boom")
    assert len(tracer.spans()) == tracer.capacity
    assert _instances(cyclic_garbage(), Span) == []


def test_query_executions_leave_no_cyclic_garbage(cyclic_garbage):
    """Each execution's path memo, kernel and pipeline are freed by
    reference counting: no execution leaves a cycle behind."""
    import types

    from repro.bench.schemas import FIG1_QUERY, build_vehicle_schema, populate_vehicles

    db = Database()
    build_vehicle_schema(db)
    populate_vehicles(db, n_vehicles=120, n_companies=6, seed=2)
    texts = (
        FIG1_QUERY,
        "SELECT v FROM Vehicle v ORDER BY v.price LIMIT 5",
        "SELECT v.manufacturer.name, COUNT(v) FROM Vehicle v GROUP BY v.manufacturer.name",
        "SELECT v.manufacturer.location FROM Vehicle v WHERE v.weight > 9000",
    )
    for text in texts:
        db.execute(text)  # parsed, planned and cached before counting
    before = len(cyclic_garbage())
    for text in texts:
        db.execute(text)
    assert list(db.select_iter(FIG1_QUERY))
    assert _instances(cyclic_garbage()[before:], types.FunctionType) == []


def test_an_abort_compensates_every_kind_of_write():
    db = _db()
    updated, moved, deleted = (db.new("T", {"x": x}).oid for x in (1, 2, 3))
    txn = db.transaction()
    inserted = db.new("T", {"x": 4}).oid
    db.update(updated, {"x": 10})
    db.put_state(ObjectState(moved, "U", {"x": 20}))
    db.delete(deleted)
    assert txn.operations == 4
    txn.abort()
    assert not db.exists(inserted)
    assert {oid: db.get_state(oid) for oid in (updated, moved, deleted)} == {
        updated: ObjectState(updated, "T", {"x": 1}),
        moved: ObjectState(moved, "T", {"x": 2}),
        deleted: ObjectState(deleted, "T", {"x": 3}),
    }
    assert db.count("T") == 3 and db.count("U") == 0
    rows = db.execute("SELECT t.x FROM T t").rows
    assert sorted(row["x"] for row in rows) == [1, 2, 3]


def test_a_closed_database_holds_no_per_object_state(cyclic_garbage, tmp_path):
    """A database is a web of bound methods, so a dropped one is cyclic
    garbage; ``close`` empties its frames, object buffer, directory and
    indexes first, so their memory does not wait for a full collection."""
    db = Database(str(tmp_path / "closed.db"))
    db.define_class("T", attributes=[AttributeDef("x", "Integer")])
    db.create_class_index("T", "x")
    oids = [db.new("T", {"x": x}).oid for x in range(200)]
    assert [db.get_state(oid).values["x"] for oid in oids] == list(range(200))
    db.close()
    assert len(db.storage.directory) == 0 and len(db.storage.buffer) == 0
    del db, oids
    garbage = cyclic_garbage()
    assert _instances(garbage, SlottedPage) == []
    assert _instances(garbage, ObjectState) == []
    assert _instances(garbage, OID) == []


@pytest.mark.parametrize("drop", ["drop_cache", "eviction"])
def test_a_dropped_frame_keeps_no_state_tuple_or_verdict(drop):
    """A page's kept state tuple dies with the frame, even while someone
    still holds the dropped page (a reader mid-scan)."""
    db = Database(page_size=512, buffer_capacity=8)
    for name in "TU":
        db.define_class(name, attributes=[AttributeDef("x", "Integer")])
    for x in range(30):
        db.new("T", {"x": x})
    for _ in range(3):  # kept from the second scan
        assert len(db.execute("SELECT t FROM T t").oids) == 30
    buffer = db.storage.buffer
    held = [buffer.get_page(page_id) for page_id in db.storage.heap_for("T").page_ids]
    kept = [page._states[1] for page in held]
    assert len(held) > 1 and all(states is not None for states in kept)
    if drop == "drop_cache":
        db.storage.drop_cache()
    else:
        for x in range(200):  # U's pages push T's out of the 8 frames
            db.new("U", {"x": x})
    assert not any(page_id in buffer for page_id in db.storage.heap_for("T").page_ids)
    assert [page._states for page in held] == [None] * len(held)
    for states in kept:
        assert not [ref for ref in gc.get_referrers(states) if type(ref) is tuple]
