"""The write-through object buffer: an update of an object read before
keeps the state it stored, as a fresh decode of its record returns it.

* **Mix.**  A seeded mix of updates (growing ones relocate on 512-byte
  pages; the first always does), reclasses, aborts, long objects,
  deletes, inserts, reads, scans and one ``add_attribute``: after each
  step every buffered state has the ``repr`` of a fresh decode-and-coerce
  of its current record, no long object is buffered, and every update
  that stored a plain record left its object buffered.
* **Sharing.**  Mutating a list passed to ``update``, or a list
  ``get_state`` returned, leaves the buffered state as it was.
* **Decodes.**  After warm-up, a loop shaped like the ledger's
  ``commit_write`` (two updates and an insert per transaction) decodes
  at most 0.1 records per transaction.

``WRITE_THROUGH_EXAMPLES`` sets how many fixed seeds the mix runs (CI's
weekly job runs 500).
"""

import enum
import math
import os
import random

import pytest

from repro import AttributeDef, Database
from repro.core.obj import ObjectState
from repro.core.oid import OID
from repro.evolution import SchemaEvolution
from repro.storage.manager import StorageManager
from repro.storage.serializer import decode_object, decoded_copy, encode_object

WRITE_THROUGH_EXAMPLES = int(os.environ.get("WRITE_THROUGH_EXAMPLES", "12"))
STEPS = 80


def _mix_db():
    db = Database(page_size=512, buffer_capacity=4)
    attributes = [
        AttributeDef("x", "Integer"),
        AttributeDef("pad", "String"),
        AttributeDef("friend"),
        AttributeDef("tags", "String", multi=True),
    ]
    for name in "TU":
        db.define_class(name, attributes=list(attributes))
    return db


def _fresh(db, value):
    """The record of OID ``value`` and a fresh decode-and-coerce of it."""
    class_name, page_id, slot = db.storage.directory.lookup(OID(value))
    body = db.storage.heap_for(class_name).read((page_id, slot))
    state = decode_object(db.storage._image(body))
    return body, db.schema.coerce(state.class_name, state)


def _check_buffer(db, seed, step):
    for value, state in list(db.storage._objects.items()):
        body, fresh = _fresh(db, value)
        assert not db.storage._is_stub(body), (seed, step, value)
        assert repr(state) == repr(fresh), (seed, step, value)


def _values(rng, live):
    # 300 outgrows most records' pages; 600 outgrows any 512-byte page:
    # stored as a chain of overflow chunks.
    size = rng.choice((0, 0, 20, 300, 600))
    return {
        "x": rng.randrange(1000),
        "pad": "p" * size,
        "friend": rng.choice(live) if live else None,
        "tags": ["t%d" % rng.randrange(9) for _ in range(rng.randrange(3))],
    }


def _step(db, rng, live, evolved):
    """One seeded step; returns the OID an update stored, or None."""
    roll = rng.random()
    oid = rng.choice(live)
    if roll < 0.15:
        db.get_state(oid)
    elif roll < 0.5:
        db.update(oid, _values(rng, live))
        return oid
    elif roll < 0.6:
        state = db.get_state(oid)
        other = "U" if state.class_name == "T" else "T"
        db.put_state(ObjectState(oid, other, state.values))
        return oid
    elif roll < 0.7:
        with pytest.raises(ZeroDivisionError):
            with db.transaction():
                for target in rng.sample(live, min(3, len(live))):
                    db.update(target, _values(rng, live))
                db.new(rng.choice("TU"), _values(rng, live))
                1 / 0
    elif roll < 0.78:
        db.delete(oid)
        live.remove(oid)
        live.append(db.new(rng.choice("TU"), _values(rng, live)).oid)
    elif roll < 0.86:
        live.append(db.new(rng.choice("TU"), _values(rng, live)).oid)
    elif roll < 0.97 or evolved:
        db.execute("SELECT t.x FROM %s t" % rng.choice("TU"))
    else:
        for name in "TU":
            SchemaEvolution(db).add_attribute(name, AttributeDef("extra", "Integer", default=7))
        evolved.append(True)
    return None


@pytest.mark.parametrize("seed", range(WRITE_THROUGH_EXAMPLES))
def test_the_buffer_holds_what_a_fresh_decode_returns(seed, relocations):
    rng = random.Random(seed)
    db = _mix_db()
    live, first = [], rng.choice("TU")
    for _ in range(12):
        live.append(db.new(first, dict(_values(rng, live), pad="")).oid)
    # Twelve short records of one class fill its first page, so growing
    # the first one moves it: every seed relocates at least once.
    db.update(live[0], {"pad": "p" * 300})
    assert relocations, ("the opening update did not move its record", seed)
    _check_buffer(db, seed, -1)
    evolved = []
    stub = db.storage._is_stub
    for step in range(STEPS):
        long_before = {oid.value for oid in live if stub(_fresh(db, oid.value)[0])}
        written = _step(db, rng, live, evolved)
        if written is not None:
            # An update reads before it writes, and a read of a plain
            # record marks it: a plain record stored over one stays buffered.
            plain = written.value not in long_before and not stub(_fresh(db, written.value)[0])
            assert (written.value in db.storage._objects) is plain, (seed, step)
        _check_buffer(db, seed, step)


def test_a_callers_lists_are_never_buffered():
    db = _mix_db()
    oid = db.new("T", {"x": 1, "tags": ["a"]}).oid
    tags = ["b"]
    db.update(oid, {"tags": tags})
    buffered = db.storage._objects[oid.value]
    tags.append("mutated")
    assert buffered.values["tags"] == ["b"]
    db.get_state(oid).values["tags"].append("mutated")
    assert db.storage.load(oid) is buffered
    assert buffered.values["tags"] == ["b"]


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


def test_a_stored_state_matches_a_decode_whatever_its_values():
    """Values the decoder gives back as another type (subclasses of
    storable ones) make the manager decode its encoding instead."""
    storage = StorageManager()
    hinted = OID(9, "Other")
    odd = {"level": _Level.HIGH, "name": _Name("n")}
    plain = {
        "nan": math.nan, "neg": -(2 ** 70), "raw": b"\x00", "flag": True, "none": None,
        "nested": [[hinted, 1.5], []], "ref": hinted,
    }
    for value, values in ((1, plain), (2, odd)):
        storage.store_new(ObjectState(OID(value), "A", {}))
        storage.load(OID(value))  # the first read marks
        state = ObjectState(OID(value, "A"), "A", values)
        storage.overwrite(state)
        expected = decode_object(encode_object(state))
        assert repr(storage._objects[value]) == repr(expected)
    assert decoded_copy(ObjectState(OID(2), "A", odd)) is None


def test_a_commit_write_loop_decodes_nothing_after_warm_up():
    rng = random.Random(5)
    db = Database()
    db.define_class(
        "Vehicle", attributes=[AttributeDef("weight", "Integer"), AttributeDef("price", "Integer")]
    )
    db.define_class("Truck", superclasses=["Vehicle"], attributes=[AttributeDef("payload", "Integer")])
    db.create_hierarchy_index("Vehicle", "weight")
    oids = [db.new("Vehicle", {"weight": i, "price": i}).oid for i in range(100)]

    def txn(a, b):
        with db.transaction():
            db.update(oids[a], {"weight": rng.randrange(1000)})
            db.update(oids[b], {"price": rng.randrange(1000)})
            db.new("Truck", {"weight": 1, "payload": rng.randrange(1000)})

    for i in range(0, 100, 2):  # warm-up: every vehicle updated once
        txn(i, i + 1)
    before = db.metrics.value("storage.decodes")
    for _ in range(200):
        txn(rng.randrange(100), rng.randrange(100))
    assert (db.metrics.value("storage.decodes") - before) / 200 <= 0.1
